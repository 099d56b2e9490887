"""Frequency-domain circuit solving via complex-valued modified nodal analysis.

The netlist is stamped once into real matrices: ``g`` holds the resistor
conductances and the +-1 incidence of each voltage source's branch-current
unknown (standard MNA), ``c`` the capacitances and ``gamma`` the inverse
inductances, so the system at angular frequency w is

    A(w) = g + jw*c + gamma/(jw),    A(w) x = z.

The stamp is kept on the (immutable) netlist, so repeated solves of one
circuit stamp it once. A stamp is a topology and values: the topology,
fixed by the element kinds, nodes and labels, gives each of the four
entries per element (and four per source incidence) its bin in the kept
(3, size, size) layout of g, c and gamma; an entry on ground's row or
column, or a source's own entry, goes to one extra bin past them that is
dropped. The values part sums the element admittances into those bins
with one bincount, in element order, straight into the kept layout. That
read-only stack, the stamp's ``matrices``, is the only home of g, c and
gamma; a stamp without inductors is told by ``gamma_reactive is None``.
The grid solver takes a stamp, not a netlist.

A restamp (``_restamp``, one per root-finding step of the calibrations)
sets some capacitances of a stamp and recomputes only the entries of c
that they stamp. bincount adds each weight to its zeroed bin in input
order, so every entry of a fresh stamp is 0.0 plus the signed admittances
of its contributors, added one at a time in element order. The restamp
recomputes each entry that a changed capacitor reaches as that same sum,
of the same floats in the same order, and copies every other entry, which
no changed value reaches; so its matrices are bit for bit, the sign of a
zero included, those of a fresh stamp of the changed circuit. The entries
that a set of capacitor labels reaches, with each one's contributors, are
worked out on the first restamp of that set and kept on the topology. Of
the peaks only c's is recomputed. The restamp shares the stamp's
read-only ``rhs``, ``base`` and ``gamma_reactive``; no Element or Netlist is
built for it.

Assembly. The topology keeps, beside its bins, its reactive entries: those
that some capacitor or inductor reaches. At every other entry A(w) is g's
entry with a +0.0 imaginary part (w*0 - 0/w) at every w. The stamp's
read-only ``base``, g + 0j, holds these and the real parts of the reactive
entries, and the stamp keeps c and gamma gathered at the reactive entries;
a restamp gathers its new c. A grid's buffer is filled from the base once,
and each block then writes only the imaginary part w*c_ij - gamma_ij/w of
each reactive entry: the same two roundings and one subtraction per entry
as the whole-matrix w*c - gamma/w, so A(w) is the same bit for bit. A
one-point grid writes its entries as one flat row, and a longer grid as a
row per point: the same floats, each by its faster write (for one point
the 2-D index costs about 0.8 us more, some 8% of a 7-unknown point solve
on a 2-vCPU Xeon VM).

A grid is screened by the certificate below once, on its whole ndarray of
w, and then solved in fixed-size frequency blocks: each block's matrices
are assembled in one buffer of at most 256 KB (or one matrix, if larger),
then pass through one batched partial-pivoting LU solve against z, and its
share of the screen's suspect points through the SVD check. A grid of one
block (every one-point solve, and a sweep of up to 334 points of a
7-unknown circuit, or 3 of a 66-unknown ladder) returns LAPACK's solution
as it is; longer grids copy it out block by block, so memory stays flat
however long the grid is. Circuits here stay small (up to ~70 unknowns),
so no sparsity machinery.

A 2-norm condition number above 1e12 attaches a warning per offending
frequency, in grid order, rather than failing; a singular system raises
:class:`SingularCircuitError` for the first singular frequency. A
certificate computed from the stamp clears most frequencies of both; the
frequencies it does not clear, and a whole block whose LU hits an exact
zero pivot, get the exact check: the condition number from their singular
values, as ``np.linalg.cond`` gives it. The warnings and errors are
therefore those of the SVD check at every frequency. A system that is
singular only in floating point, where no source loop makes it singular
whatever the values and the element admittances at f (1/R, wC, 1/(wL))
span more than 1/u, raises :class:`AdmittanceSpanError` instead, a
ValueError naming the elements of largest and smallest admittance.

The certificate rests on passivity. Element requires R, C and L > 0, so the
node blocks G, C and Gamma of g, c and gamma are symmetric positive
semidefinite, and with the source incidence B = g[:n, n:] (n x m)

    A(w) = [[Y, B], [B^T, 0]],    Y(w) = G + j (w C - Gamma / w).

Let N be an orthonormal basis of ker B^T, from one Householder QR of B,
and beta = sigma_m(B), from the eigenvalues of the m x m integer matrix
B^T B; both are kept per B, which the source positions fix. beta is 0
when m > n or B is rank-deficient (a source loop), and then nothing is
cleared. For a unit x in the range of N, |x* Y x| >= hypot(x* G x,
w x* C x), and >= x* G x with inductors, whose imaginary part
w x* C x - x* Gamma x / w can cancel. So sigma_min(N^T Y N)
>= alpha = hypot(lam_G, w lam_C), with lam_G and lam_C the smallest
eigenvalues of N^T G N and N^T C N, and lam_C taken as 0 with inductors.
Write the solution of A [x; y] = [f; g] as x = x_p + N v, with x_p the
least-norm solution of B^T x = g. With ny >= |Y(w)|_F this gives
|x| <= a |f| + b |g| and |y| <= c |f| + d |g|, for a = 1 / alpha,
b = c = (1 + ny / alpha) / beta and d = ny b / beta, so

    cond_2(A) <= |A|_F * |[[a, b], [c, d]]|_F,    |A|_F^2 = ny^2 + 2 |B|_F^2,

a closed form in w. As G is real and w C - Gamma / w imaginary, the
triangle inequality gives |Y(w)|_F^2 = |G|_F^2 + |w C - Gamma / w|_F^2 <=
|G|_F^2 + (w |C|_F + |Gamma|_F / w)^2, so ny = hypot(|G|_F, w |C|_F +
|Gamma|_F / w), and the per-stamp scalars are lam_G, lam_C, |G|_F, |C|_F,
|Gamma|_F, beta and |B|_F. A frequency whose bound is below 1e10 is
cleared. The bound is evaluated with no division by alpha, and a NaN or an
overflow in it is not below 1e10, so such a frequency goes to the SVD; so
does every frequency when the sources fix every node voltage (N is empty).
The scalars are computed on a stamp's first solve, after the float-range
check below (a restamp's are scaled when it is made; see below), and kept
on the stamp; a one-point grid evaluates the bound in Python floats, a
longer one on its ndarray of w. The anchored term below is one NumPy
expression, evaluated on an ndarray of w however many points the grid
has: NumPy scalars would warn where Python floats overflow silently.

Rounding: each lam is lowered by 1e3 * size^2 * u * max|entry| (u the unit
roundoff), which covers the computed N and eigenvalues. Householder QR is
backward stable: N^T N - I and B^T N are within a small multiple of n u in
every entry (the tests check 4 n u), so N is within about n u (1 + 1/beta)
of an orthonormal basis of ker B^T. A lam computed from it is then within
about 3 (1 + 1/beta) n u |G|_2 <= 3 (1 + 1/beta) size^2 u max|entry| of
the exact one, and eigvalsh adds a few size u |N^T G N|. beta is not
small: without a source loop the sources form a forest on the nodes and
ground, and for x in the range of B each |x_i| (ground's entry 0) or
|x_i - x_j| of one tree sums the differences along a path of at most m
edges, which gives |x| <= (m + 1) |B^T x|: 1/beta <= m + 1, so
3 (1 + 1/beta) stays inside the margin's 1e3 up to 330 sources. An
entry of the assembled w*c - gamma/w is off by at most 2u (w |c_ij| +
|gamma_ij| / w), so the assembled A(w) is off by at most 2u ny in norm. A
cleared frequency has sigma_min(A) > |A|_F / 1e10 >= ny / 1e10, so that
rounding stays below 3e-6 sigma_min, and the factor 100 between 1e10 and
1e12 covers the rest.

The anchored term. Without inductors, lam_G is 0 when a part of the
circuit has no conductive path to ground, and lam_C is 0 when a node has
no capacitor; with both at 0, alpha is 0 at every w and nothing is
cleared (so with a resistive receiver load). One eigenvalue taken at the
anchor frequency w_0 = |G|_F / |C|_F, the stamp's own RC corner, clears
such a stamp: lam_0 = lambda_min(N^T (G + w_0 C) N). For a unit x in the
range of N, as x* G x >= 0 and x* C x >= 0,

    |x* Y x| = hypot(x* G x, w x* C x) >= x* (G + w C) x / sqrt(2),
    G + w C >= G + w_0 C                    for w >= w_0,
    G + w C >= (w / w_0) (G + w_0 C)        for w <= w_0, since G >= 0,

so alpha = max(hypot(lam_G, w lam_C), min(1, w / w_0) lam_0 / sqrt(2)),
still a closed form in w. lam_0 is computed only where alpha is 0 at
every w, that is for a stamp without inductors whose lam_G and lam_C are
both 0, and in the same call as they are: one eigvalsh of
N^T (G + w_0 C) N divided by |G|_F, lowered by twice the rounding margin
(each of G / |G|_F and C / |C|_F is at most 1 in every entry). Everywhere
else lam_0 is 0: with inductors the anchored term is 0, as lam_C is, and
where alpha > 0 one more eigenvalue problem per stamp costs more than the
points it could clear.

A restamp of capacitances (the calibrations' steps on CGTX and CGRX) keeps
G, Gamma and N. Each capacitor enters C as c_k u_k u_k^T, so with r_lo and
r_hi the smallest and largest ratio of a new capacitance to its old one, 1
among them, C >= r_lo C_old in the Loewner order and |C|_F <= r_hi |C_old|_F
entry by entry: the restamp scales its parent's lam_C (0 with inductors,
and so still 0) and |C|_F in a few float operations, when it is made, and
keeps every other scalar. Only the parent's certificate is computed then,
if it has none, and only from finite matrices; so no np.linalg call sees
the restamped system before the float-range check below. The restamp does
not take the parent's lam_0, which belongs to the parent's C, so its lam_0
is 0. Where either stamp has an entry past the float range, the restamp
has no scaled certificate and gets its own on its first solve.

Each stamp's certificate is made once and never upgraded: there is no
second screen. A frequency that it does not clear, a restamp's included,
goes straight to the SVD check; a restamp is solved at few points, where
a certificate of its own costs more than the SVD it would save.

Before any of that, a grid is checked against the float range once: the
stamp keeps the largest |entry| of g, c and gamma, and the grid's ends
give the largest w*c and gamma/w. An entry past the range raises
ValueError naming an element on it, where the solve would otherwise
overflow into a wrong singular-system error (and LAPACK print to stderr).

A single-frequency solve is the one-point case of the same function:
``_solve_grid(stamp, (f,))`` keeps f and w = 2 pi f as Python floats, runs
the float-range check and the certificate bound on them (an anchored
certificate on a one-point ndarray, as above), assembles A(w) from a copy
of the base with the float w and makes one np.linalg.solve call, with no
block loop. Each float operation is the one that a block applies to that
point, w*c and gamma/w entry by entry and then the same LAPACK solve, so a
sweep and per-frequency solves give bit-identical results, the same
warnings and the same singular-system error.

A probe's voltage is read off the solved rows in one place, ``_across``,
with ground read as 0j: ``transfer`` scales it by the source into its
sweep, and ``_probe_gain`` gives its gain in dB for a unit source at one
float or over a grid, of the kept stamp or of a restamp, with no
ACSolution, FrequencyGrid or SweepResult. Netlists and results are
immutable: grid points and sweep gains are read-only float64 and
complex128 ndarrays, and every gain in dB goes through the one numpy
expression ``_gain_db``.

A netlist of more than ``_MAX_UNKNOWNS`` unknowns (nodes other than
ground, plus one branch current per source) is refused before its stamp
is allocated: the dense stamp holds 3 * size**2 floats and size**2
complex values, some 160 MB at the cap.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .netlist import Netlist, _require_positive

__all__ = [
    "ACSolution",
    "AdmittanceSpanError",
    "FrequencyGrid",
    "SingularCircuitError",
    "SweepResult",
    "solve_ac",
    "transfer",
    "sweep_csv",
]

COND_WARN_THRESHOLD = 1e12
# A frequency whose certified bound on cond_2 is below this is cleared
# without its singular values.
_CLEARED_BOUND = COND_WARN_THRESHOLD / 100.0
_EPS = float(np.finfo(float).eps)
# Rounding margin per squared unknown, as a share of the largest |entry|:
# 1e3 times the unit roundoff.
_MARGIN = 1e3 * _EPS / 2.0
# Complex entries per frequency block (256 KB): the stacked system matrices
# of one block stay cache-sized however long the grid is.
_BLOCK_ENTRIES = 1 << 14
# The most MNA unknowns a netlist may have: its dense stamp is some 160 MB here.
_MAX_UNKNOWNS = 2048


def _require_each(check, name: str, values: np.ndarray) -> None:
    """check(name, value) for each value of an ndarray, through its extremes.

    Each of netlist's ``_require_*`` checks accepts one interval, so an
    array passes when its minimum and maximum do; a NaN anywhere reaches both.
    """
    if values.size:
        check(name, values.min())
        check(name, values.max())


class SingularCircuitError(ArithmeticError):
    """The MNA system is singular; ``nodes`` lists the implicated node set."""

    def __init__(self, message: str, nodes: tuple[int, ...] = ()):
        self.nodes = nodes
        if nodes:
            message = f"{message} (offending nodes: {list(nodes)})"
        super().__init__(message)


class AdmittanceSpanError(SingularCircuitError, ValueError):
    """The MNA system is singular in floating point only: the element admittances
    at its frequency span more than 1/u (u the unit roundoff)."""


class ACSolution(dict):
    """Complex node-voltage map (node id -> phasor) for one frequency.

    Also exposes the source branch currents and any numerical warnings
    raised during the solve. ``source_currents`` is a mapping or an
    iterable of (label, current) pairs, as ``dict`` takes it.
    """

    def __init__(self, voltages: dict[int, complex],
                 source_currents: Mapping[str, complex] | Iterable[tuple[str, complex]],
                 warnings: tuple[str, ...] = ()):
        super().__init__(voltages)
        self.source_currents = dict(source_currents)
        self.warnings = tuple(warnings)


class _Topology(NamedTuple):
    """The part of a stamp fixed by the netlist's kinds, nodes and labels: where each value goes."""

    index: dict[int, int]  # non-ground node -> row
    sources: tuple[int, ...]  # position in the elements of source k, whose row is len(index) + k
    labels: tuple[str, ...]  # of the elements, in element order
    kinds: str  # the kind letter of each element, in element order
    # Bin of each entry, four per element and then four per source, in the row-major
    # (3, size, size) stack of g, c and gamma for size unknowns; an entry that is
    # dropped goes to bin 3 * size * size.
    bins: np.ndarray
    # The flat index in a (size, size) matrix of each entry that a C or an L reaches, ascending
    reactive: np.ndarray
    plans: dict  # the restamp plan of each set of capacitor labels (see _restamp)


class _Certificate(NamedTuple):
    """The per-stamp scalars of the condition bound (see the module docstring)."""

    lam_g: float  # lower bounds on lambda_min(N^T G N) and lambda_min(N^T C N);
    lam_c: float  # lam_c is 0.0 with inductors, whose alpha is lam_g alone
    c_norm: float  # |C|_F, or an upper bound on it
    gamma_norm: float  # |Gamma|_F
    g_norm: float  # |G|_F
    b_norm: float  # sqrt(2) * |B|_F, the source incidence's part of |A(w)|_F
    inv_beta: float  # 1 / beta: 0.0 without sources, inf when beta = 0
    # The anchored term's lower bound on lambda_min(N^T (G + w_0 C) N) and the anchor
    # frequency w_0 = |G|_F / |C|_F; lam_0 is 0.0 wherever the term does not apply
    lam_0: float = 0.0
    w_0: float = 0.0


@dataclass(eq=False, slots=True)
class _Stamp:
    """Real MNA matrices of a circuit.

    ``matrices`` is the only home of g, c and gamma; ``gamma_reactive`` is
    None, and only then, when the circuit has no inductors. ``values`` is
    what :func:`_restamp` patches. A restamp in the float range gets its
    ``certificate`` when it is made, scaled from its parent's; any other
    stamp gets its own from :func:`_certificate` on its first solve. Once
    set, it is never replaced.
    """

    matrices: np.ndarray  # the read-only (3, unknowns, unknowns) stack of g, c and gamma
    # The read-only g + 0j, shape (1, unknowns, unknowns): A(w) at each entry that no C or L
    # reaches, and the real part of every other
    base: np.ndarray
    # c and gamma at topology.reactive (gamma's None without inductors)
    c_reactive: np.ndarray
    gamma_reactive: np.ndarray | None
    rhs: np.ndarray  # z, shape (1, unknowns, 1)
    topology: _Topology
    peaks: tuple[float, float, float]  # largest |entry| of g, c and gamma (0.0 without one)
    values: tuple[float, ...]  # of the elements, in element order
    certificate: _Certificate | None = None


# Stacked matrix of each element kind. A source's own entries go to the
# fourth, which is dropped: a source stamps only its incidence.
_MATRIX = {"R": 0, "C": 1, "L": 2, "V": 3}
# Signs of an admittance's entries (i, i), (j, j), (i, j), (j, i), and of a
# source's incidence entries (i, r), (r, i), (j, r), (r, j) for its
# branch-current row r.
_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def _stamp(netlist: Netlist) -> _Stamp:
    """The netlist's MNA stamp, built on first use and kept on the netlist."""
    stamp = getattr(netlist, "_mna", None)
    if stamp is None:
        stamp = _build_stamp(netlist)
        # Netlist is frozen; the stamp is derived from its fields and never
        # compared, hashed or written, so it rides along as a plain attribute.
        object.__setattr__(netlist, "_mna", stamp)
    return stamp


def _build_stamp(netlist: Netlist) -> _Stamp:
    """The netlist's stamp, laid out by its topology.

    One bincount sums every entry in element order, starting from 0.0: the
    order in which :func:`_restamp` sums each entry that it recomputes.
    """
    topology, elements = _topology(netlist), netlist.elements
    size = len(topology.index) + len(topology.sources)
    rhs = np.zeros((1, size, 1), dtype=complex)
    rhs[0, len(topology.index):, 0] = [elements[k].value for k in topology.sources]
    rhs.setflags(write=False)
    values = tuple(e.value for e in elements)
    y = [1.0 / v if kind in "RL" else v for kind, v in zip(topology.kinds, values)]
    y += [1.0] * len(topology.sources)  # the unit incidence of each branch current
    weights = (np.fromiter(y, float, len(y))[:, None] * _SIGNS).ravel()
    kept = 3 * size * size
    m = np.bincount(topology.bins, weights, kept + 1)[:kept].reshape(3, size, size)
    m.setflags(write=False)
    base = m[:1].astype(complex)
    base.setflags(write=False)
    peaks = tuple(np.abs(m).max(axis=(1, 2)).tolist())
    gamma = m[2].take(topology.reactive) if "L" in topology.kinds else None
    return _Stamp(m, base, m[1].take(topology.reactive), gamma, rhs, topology, peaks, values)


def _topology(netlist: Netlist) -> _Topology:
    nodes = netlist.nodes()
    nodes.discard(netlist.ground)
    index = dict(zip(sorted(nodes), range(len(nodes))))
    elements = netlist.elements
    sources = tuple(k for k, e in enumerate(elements) if e.kind == "V")
    n, size = len(index), len(index) + len(sources)
    if size > _MAX_UNKNOWNS:
        raise ValueError(f"the netlist has {size} MNA unknowns; at most {_MAX_UNKNOWNS} are allowed")
    # Entry (i, j) of matrix m goes to bin (m * size + i) * size + j. Ground's
    # row and column, and the fourth matrix (a source's own entries), lie at or
    # past bin 3 * size * size, where np.minimum gathers every dropped entry.
    kept = 3 * size * size
    place = {node: (i * size, i) for node, i in index.items()}
    place[netlist.ground] = (kept, kept)
    base = {kind: m * size * size for kind, m in _MATRIX.items()}
    at: list[int] = []
    for element in elements:
        a, b = element.nodes
        (ri, i), (rj, j), m = place[a], place[b], base[element.kind]
        at += (m + ri + i, m + rj + j, m + ri + j, m + rj + i)
    for r, k in enumerate(sources, start=n):
        a, b = elements[k].nodes
        (ri, i), (rj, j) = place[a], place[b]
        at += (ri + r, r * size + i, rj + r, r * size + j)
    bins = np.minimum(np.fromiter(at, np.intp, len(at)), kept)
    hit = np.zeros(kept + 1, dtype=bool)
    hit[bins] = True
    square = size * size  # c's bins and then gamma's, each square of them
    reactive = np.flatnonzero(hit[square:2 * square] | hit[2 * square:kept])
    return _Topology(index, sources, tuple(e.label for e in elements),
                     "".join(e.kind for e in elements), bins, reactive, {})


def _restamp(stamp: _Stamp, caps: Mapping[str, float]) -> _Stamp:
    """``stamp`` with the capacitors labelled in ``caps`` set to those values.

    Each value passes Element's own check, in the order of ``caps``. The
    restamp keeps the stamp's topology and read-only ``rhs``, and gets the
    matrices of a fresh stamp of the changed circuit: it recomputes only the
    entries of c that the capacitors stamp, each as the in-order sum that
    the fresh stamp's bincount makes of it, and only c's peak. With both
    stamps in the float range, its certificate is the stamp's own, scaled by
    the smallest and the largest ratio of a capacitance to its old value,
    with 1 among them (see the module docstring).
    """
    topology, values = stamp.topology, list(stamp.values)
    ratios = [1.0]
    for label, value in caps.items():
        k = topology.labels.index(label)
        if topology.kinds[k] != "C":
            raise ValueError(f"element {label} is not a capacitor")
        _require_positive(label, value)
        ratios.append(value / values[k])
        values[k] = value
    plan = topology.plans.get(key := frozenset(caps))
    if plan is None:  # each kept entry that the capacitors reach, with its terms in element order
        bins = topology.bins[:4 * len(values)].tolist()
        reached = {bins[4 * topology.labels.index(label) + j] for label in caps for j in range(4)}
        plan = topology.plans[key] = [
            (at, [(j // 4, float(_SIGNS[j % 4])) for j, b in enumerate(bins) if b == at])
            for at in sorted(reached) if at < stamp.matrices.size]
    m = stamp.matrices.copy()
    for at, terms in plan:
        total = 0.0  # as bincount's zeroed bin
        for k, sign in terms:
            total += values[k] * sign
        m.flat[at] = total
    m.setflags(write=False)
    peaks = (stamp.peaks[0], float(np.abs(m[1]).max()), stamp.peaks[2])
    restamped = _Stamp(m, stamp.base, m[1].take(topology.reactive), stamp.gamma_reactive,
                       stamp.rhs, topology, peaks, tuple(values))
    if max(stamp.peaks + restamped.peaks) < math.inf:
        base = _certificate(stamp)
        # min(ratios) * C_old <= C <= max(ratios) * C_old, entry by entry and in the Loewner
        # order; G, Gamma and N are the parent's, but not its anchored term, made for its C
        tol = _MARGIN * m.shape[1] ** 2
        restamped.certificate = base._replace(
            lam_c=max(min(ratios) * base.lam_c - tol * restamped.peaks[1], 0.0),
            c_norm=max(ratios) * base.c_norm, lam_0=0.0)
    return restamped


def _source_kernel(incidence: np.ndarray) -> tuple[np.ndarray | None, float, float]:
    """(N, 1 / beta, sqrt(2) * |B|_F) of the source incidence B (n x m), N read-only.

    N is the last n - m columns of Q from one Householder QR, B = Q R. The
    squared singular values of B, beta**2 the smallest, are the eigenvalues
    of the m x m matrix B^T B = R^T R, whose entries are small integers and
    so formed exactly. beta is taken as 0, and N as None, when m > n or when
    beta**2 is rounding noise against the largest one: B is rank-deficient,
    a source loop. The three are kept for the last 32 incidences: B is fixed
    by where the sources sit, so every body channel built in one process
    shares one, and numpy's QR and eigh cost some 30 us on a small B.
    """
    return _kernel_of(incidence.shape, incidence.tobytes())


@lru_cache(maxsize=32)
def _kernel_of(shape: tuple[int, int], entries: bytes) -> tuple[np.ndarray | None, float, float]:
    incidence = np.frombuffer(entries).reshape(shape)
    n, m = shape
    b_norm = math.sqrt(2.0 * np.count_nonzero(incidence))
    if not m:
        basis = np.eye(n)
        basis.setflags(write=False)
        return basis, 0.0, b_norm
    if m > n:
        return None, math.inf, b_norm
    squares = np.linalg.eigh(incidence.T @ incidence)[0]
    beta_sq = float(squares[0])
    if not beta_sq > float(squares[-1]) * n * _EPS:
        return None, math.inf, b_norm
    basis = np.linalg.qr(incidence, mode="complete")[0][:, m:]
    basis.setflags(write=False)
    return basis, 1.0 / math.sqrt(beta_sq), b_norm


def _certificate(stamp: _Stamp) -> _Certificate:
    """The stamp's certificate: the one it has, or its own from its matrices, computed
    once and kept on it.

    A restamp in the float range has its scaled certificate from
    :func:`_restamp`. A stamp's own has the anchored term when alpha is 0 at
    every frequency: an RC stamp with lam_g = lam_c = 0, a kernel, and G, C
    nonzero with w_0 in the float range.
    """
    if stamp.certificate is not None:
        return stamp.certificate
    n = len(stamp.topology.index)
    tol = _MARGIN * stamp.matrices.shape[1] ** 2
    kernel, inv_beta, b_norm = _source_kernel(stamp.matrices[0, :n, n:])
    blocks = stamp.matrices[:, :n, :n]  # G, C and Gamma (zero without inductors)
    peaks = np.abs(blocks).max(axis=(1, 2), initial=0.0)
    units = blocks / np.where(peaks > 0.0, peaks, 1.0)[:, None, None]  # no overflow below
    with np.errstate(over="ignore"):  # a norm past the float range is inf, and clears no point
        g_norm, c_norm, gamma_norm = (peaks * np.sqrt((units * units).sum(axis=(1, 2)))).tolist()
    lam_g = lam_c = lam_0 = w_0 = 0.0
    if kernel is not None and kernel.shape[1]:
        lows = np.linalg.eigvalsh(kernel.T @ units[:2] @ kernel)[:, 0].tolist()
        # each less its rounding margin, and at least 0; a NaN stays NaN
        lam_g, lam_c = (max(low - tol, 0.0) * peak for low, peak in zip(lows, peaks.tolist()))
        w_0 = g_norm / c_norm if c_norm else 0.0
        if stamp.gamma_reactive is None and lam_g == lam_c == 0.0 and 0.0 < w_0 < math.inf:
            # (G + w_0 C) / |G|_F = G / |G|_F + C / |C|_F, each term at most 1 in every entry
            unit = blocks[0] / g_norm + blocks[1] / c_norm
            low = float(np.linalg.eigvalsh(kernel.T @ unit @ kernel)[0])
            lam_0 = max(low - 2.0 * tol, 0.0) * g_norm
    stamp.certificate = _Certificate(lam_g, lam_c if stamp.gamma_reactive is None else 0.0, c_norm,
                                     gamma_norm, g_norm, b_norm, inv_beta, lam_0, w_0)
    return stamp.certificate


def _bound_terms(cert: _Certificate, w, hypot):
    """(num, alpha) with cond_2(A(w)) <= num / alpha at angular frequency w.

    ``w`` is a float with ``math.hypot`` or an ndarray with ``np.hypot``; a
    certificate with the anchored term takes an ndarray, since that term is
    one NumPy expression. The terms hold no division by alpha, so a zero
    alpha reads as not cleared, and np.maximum keeps a NaN of either term.
    """
    alpha = hypot(cert.lam_g, w * cert.lam_c)
    if cert.lam_0:  # the anchored term, where it applies
        alpha = np.maximum(np.minimum(1.0, w / cert.w_0) * (cert.lam_0 / math.sqrt(2.0)), alpha)
    ny = hypot(cert.g_norm, w * cert.c_norm + cert.gamma_norm / w)  # >= |Y(w)|_F
    t, inv_beta = alpha + ny, cert.inv_beta
    h = hypot(hypot(1.0, math.sqrt(2.0) * inv_beta * t), inv_beta * inv_beta * ny * t)
    return hypot(ny, cert.b_norm) * h, alpha


def _uncleared(cert: _Certificate, omega) -> list[int]:
    """The indices of the points of ``omega`` whose bound is not below _CLEARED_BOUND.

    A NaN bound is not below it either. ``omega`` is a grid's ndarray, or a
    float for a one-point grid, which is bounded in Python floats, a few
    times faster than on an ndarray; an anchored certificate takes the
    ndarray path for it, whose errstate keeps the NumPy anchored term from
    warning.
    """
    if isinstance(omega, float) and not cert.lam_0:
        num, alpha = _bound_terms(cert, omega, math.hypot)
        return [] if num < _CLEARED_BOUND * alpha else [0]
    with np.errstate(all="ignore"):  # an overflow or a NaN is simply not cleared
        num, alpha = _bound_terms(cert, np.atleast_1d(omega), np.hypot)
        return np.flatnonzero(~(num < _CLEARED_BOUND * alpha)).tolist()


def _singular_nodes(a: np.ndarray, index: dict[int, int]) -> tuple[int, ...]:
    # Smallest right singular vector localizes the undetermined voltages.
    _, s, vh = np.linalg.svd(a)
    null = np.abs(vh[-1])
    n = len(index)
    peak = null[:n].max() if n else 0.0
    if peak == 0.0:
        return ()
    rev = {i: node for node, i in index.items()}
    return tuple(sorted(rev[i] for i in range(n) if null[i] > 0.1 * peak))


def _singular(stamp: _Stamp, a: np.ndarray, f: float) -> SingularCircuitError:
    """The error for A(w) at f, which is singular in floating point.

    Where no source loop makes it singular whatever the values, and the
    element admittances at f (1/R, wC, 1/(wL)) span more than 1/u, rounding
    is the cause: an AdmittanceSpanError names the elements of largest and
    smallest admittance.
    """
    w, topology = 2.0 * math.pi * float(f), stamp.topology
    admittance = {k: 1.0 / v if kind == "R" else w * v if kind == "C" else 1.0 / (w * v)
                  for k, (kind, v) in enumerate(zip(topology.kinds, stamp.values)) if kind != "V"}
    if admittance and stamp.certificate.inv_beta < math.inf:
        top, low = (pick(admittance, key=admittance.get) for pick in (max, min))
        if admittance[top] * (_EPS / 2.0) > admittance[low]:
            top, low = (f"{topology.labels[k]} ({topology.kinds[k]} = {stamp.values[k]:g})"
                        for k in (top, low))
            return AdmittanceSpanError(f"element admittances at f={f:g} Hz span more than the "
                                       f"float precision, from {top} down to {low}")
    return SingularCircuitError(f"singular MNA system at f={f:g} Hz",
                                _singular_nodes(a, topology.index))


def _check_condition(stamp: _Stamp, a: np.ndarray, f, points: list[int],
                     warnings: list[str]) -> None:
    """The exact SVD check of ``a[k]`` for each k in ``points`` (ascending, not empty).

    Appends the ill-conditioning warnings in order and raises for the first
    singular point.
    """
    s = np.linalg.svd(a[points], compute_uv=False)
    for k, singular_values in zip(points, s.tolist()):
        s_max, s_min = singular_values[0], singular_values[-1]
        if s_min == 0.0:
            raise _singular(stamp, a[k], f[k])
        cond = s_max / s_min  # the 2-norm condition number, as np.linalg.cond gives it
        if cond > COND_WARN_THRESHOLD:
            warnings.append(f"ill-conditioned MNA system at f={f[k]:g} Hz (cond~{cond:.3g})")


def _out_of_range(stamp: _Stamp, reach: tuple[float, float, float],
                  f_lo: float, f_hi: float) -> ValueError:
    """The error for a grid [f_lo, f_hi] on which ``reach``, the largest |entry| of g, w*c
    and gamma/w, leaves the float range.

    It names the element of largest admittance among those stamped on the
    largest entry of the first matrix out of range.
    """
    matrix = next(k for k, peak in enumerate(reach) if not peak < math.inf)
    f = f_hi if matrix == 1 else f_lo
    entry = matrix * stamp.matrices[0].size + int(np.abs(stamp.matrices[matrix]).argmax())
    values, kinds = stamp.values, stamp.topology.kinds
    bins = stamp.topology.bins[:4 * len(values)].reshape(-1, 4)
    on_entry = np.flatnonzero((bins == entry).any(axis=1))
    k = max(on_entry.tolist(), key=lambda k: values[k] if kinds[k] == "C" else 1.0 / values[k])
    return ValueError(f"element {stamp.topology.labels[k]} ({kinds[k]} = {values[k]:g}) "
                      f"puts the MNA system out of the float range at f={f:g} Hz")


def _solve_grid(stamp: _Stamp, freqs) -> tuple[np.ndarray, list[str]]:
    """Solve the stamp's MNA system at every frequency in ``freqs`` (hertz, > 0, ascending).

    Returns the ``(len(freqs), unknowns)`` solutions, in the row layout of
    ``stamp.topology`` (for a grid of one block, a view of LAPACK's output),
    and the ill-conditioning warnings in grid order.
    Raises ValueError, before any np.linalg call on the stamp, when an entry
    of g, w*c or gamma/w leaves the float range on the grid.
    """
    one = len(freqs) == 1  # one point stays a Python float
    freqs = (float(freqs[0]),) if one else np.asarray(freqs, dtype=float)
    f_lo, f_hi = float(freqs[0]), float(freqs[-1])
    g_peak, c_peak, gamma_peak = stamp.peaks
    # w*c is largest at the top of the grid, gamma/w at the bottom
    reach = (g_peak, c_peak * (2.0 * math.pi * f_hi), gamma_peak / (2.0 * math.pi * f_lo))
    if not max(reach) < math.inf:
        raise _out_of_range(stamp, reach, f_lo, f_hi)
    omega = 2.0 * math.pi * (f_lo if one else freqs)
    suspect = _uncleared(_certificate(stamp), omega)  # one screen for the whole grid
    size = stamp.rhs.shape[1]
    block = _BLOCK_ENTRIES // (size * size) or 1
    warnings: list[str] = []
    if len(freqs) <= block:
        a = stamp.base.copy() if one else stamp.base.repeat(len(freqs), axis=0)
        return _solve_block(stamp, a, freqs, omega, suspect, warnings), warnings
    x = np.empty((len(freqs), size), dtype=complex)
    buffer = stamp.base.repeat(block, axis=0)  # g and the zero parts, once for every block
    for start in range(0, len(freqs), block):
        stop = min(start + block, len(freqs))
        share = suspect[bisect_left(suspect, start):bisect_left(suspect, stop)]
        x[start:stop] = _solve_block(stamp, buffer[:stop - start], freqs[start:stop],
                                     omega[start:stop], [k - start for k in share], warnings)
    return x, warnings


def _solve_block(stamp: _Stamp, a: np.ndarray, f, omega, suspect: list[int],
                 warnings: list[str]) -> np.ndarray:
    """The ``(len(f), unknowns)`` solutions at the block's frequencies ``f``, a view of
    LAPACK's output; ``omega`` is 2 pi f, a Python float for one point, and ``suspect``
    the block's points that the certificate did not clear.

    ``a`` holds the stamp's base at every point, but for the imaginary parts of the
    reactive entries (an earlier block's, in a buffer that blocks share); A(w) is
    completed by writing those, w*c - gamma/w, and no other entry.
    Appends the block's warnings, and raises for its first singular frequency.
    """
    entries = stamp.topology.reactive
    if isinstance(omega, float):  # one point: its entries in one flat row
        w, imag = omega, a.imag.reshape(-1)
    else:  # a row of entries per point
        w, imag, entries = omega[:, None], a.imag.reshape(len(a), -1), (slice(None), entries)
    part = w * stamp.c_reactive
    if stamp.gamma_reactive is not None:
        part -= stamp.gamma_reactive / w
    imag[entries] = part
    try:
        solution = np.linalg.solve(a, stamp.rhs)
    except np.linalg.LinAlgError:
        # Name the first singular frequency as a one-point solve finds it: by
        # its singular values, or by an exact zero pivot that they missed.
        for k in range(len(f)):
            _check_condition(stamp, a, f, [k], warnings)
            try:
                np.linalg.solve(a[k], stamp.rhs[0])
            except np.linalg.LinAlgError:
                raise _singular(stamp, a[k], f[k]) from None
        raise
    if suspect:
        _check_condition(stamp, a, f, suspect, warnings)
    return solution[..., 0]


def solve_ac(netlist: Netlist, f: float) -> ACSolution:
    """Solve node voltages at a single frequency.

    Returns an :class:`ACSolution` mapping every node id (ground included)
    to its complex voltage. KCL holds at every non-ground node to within
    1e-9 of the largest branch current.

    Raises
    ------
    ValueError
        If ``f`` is not finite and positive.
    SingularCircuitError
        If the system has no unique solution; the offending node set is
        reported.
    """
    _require_positive("frequency", f)
    stamp = _stamp(netlist)
    x, warnings = _solve_grid(stamp, (f,))
    row, topology = x[0].tolist(), stamp.topology
    index = topology.index  # the nodes in row order; the source currents follow them
    labels = (topology.labels[k] for k in topology.sources)
    solution = ACSolution({netlist.ground: 0j}, zip(labels, row[len(index):]), warnings)
    solution.update(zip(index, row))
    return solution


def _frozen(obj, name: str, dtype) -> np.ndarray:
    """Replace field ``name`` of a frozen ``obj`` by a read-only 1-D ``dtype`` copy of it.

    A complex input to a real ``dtype`` is rejected, not cut to its real part.
    """
    a = getattr(obj, name)
    if dtype is float and np.iscomplexobj(a):
        raise ValueError(f"{name} must be real, got complex values")
    a = np.array(a, dtype=dtype)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    a.setflags(write=False)
    object.__setattr__(obj, name, a)
    return a


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing, positive frequency points in hertz.

    ``points`` is a read-only float64 ndarray copied from the input.
    Iteration yields Python floats; two grids are equal when their points are.
    """

    points: np.ndarray

    def __post_init__(self):
        points = _frozen(self, "points", float)
        if not points.size:
            raise ValueError("empty frequency grid")
        _require_each(_require_positive, "frequency", points)
        if not (np.diff(points) > 0.0).all():
            raise ValueError("frequencies must be strictly increasing")

    def __eq__(self, other):
        return isinstance(other, FrequencyGrid) and np.array_equal(self.points, other.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points.tolist())

    @classmethod
    def log(cls, start: float = 1e5, stop: float = 1e9, n: int = 200) -> "FrequencyGrid":
        """Log-spaced grid; defaults cover 100 kHz - 1 GHz."""
        # checked before numpy, which warns on a NaN, infinite or negative end
        _require_positive("start", start)
        _require_positive("stop", stop)
        return cls(np.geomspace(start, stop, n))

    @classmethod
    def linear(cls, start: float, stop: float, n: int) -> "FrequencyGrid":
        _require_positive("start", start)
        _require_positive("stop", stop)
        return cls(np.linspace(start, stop, n))


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-frequency complex transfer gain (probe voltage / source voltage).

    ``freqs`` and ``gain`` are read-only float64 and complex128 ndarrays
    copied from the input. Results compare by identity.
    """

    freqs: np.ndarray
    gain: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        freqs, gain = _frozen(self, "freqs", float), _frozen(self, "gain", complex)
        if len(freqs) != len(gain):
            raise ValueError("freqs and gain must have equal length")
        if not np.isfinite(np.abs(gain)).all():
            raise ValueError("non-finite gain in sweep result")

    def gain_db(self) -> np.ndarray:
        return _gain_db(self.gain)


@np.errstate(divide="ignore")
def _gain_db(gain: np.ndarray) -> np.ndarray:
    """20*log10|gain|, -inf for a zero gain: the one dB conversion of solved gains."""
    return 20.0 * np.log10(np.abs(gain))


def transfer(netlist: Netlist, source_label: str, probe: tuple[int, int],
             grid: FrequencyGrid) -> SweepResult:
    """Sweep the transfer gain (V[probe+] - V[probe-]) / V_source over a grid."""
    source = netlist.source(source_label)
    if source.value == 0:
        raise ValueError(f"source {source_label!r} has zero amplitude")
    stamp, rows = _probe_rows(netlist, probe)
    x, warnings = _solve_grid(stamp, grid.points)
    # real and imaginary parts scaled by 1/V, the factor numpy's complex division applies;
    # dividing by complex(V, 0) would also add 0.0 to each real part, making a -0.0 +0.0
    gain = (_across(x, rows, False).view(float) * (1.0 / source.value)).view(complex)
    return SweepResult(freqs=grid.points, gain=gain, warnings=tuple(warnings))


def _probe_rows(netlist: Netlist, probe: tuple[int, int]) -> tuple[_Stamp, tuple]:
    """The netlist's kept stamp, and the row of each probe node in its solutions (None for
    ground); a probe node that is neither ground nor in the netlist raises ValueError."""
    stamp, ground = _stamp(netlist), netlist.ground
    index = stamp.topology.index
    for node in probe:
        if node != ground and node not in index:
            raise ValueError(f"probe node {node} not present in netlist")
    return stamp, tuple(None if node == ground else index[node] for node in probe)


def _across(x: np.ndarray, rows: tuple, one: bool):
    """The probe's voltage off ``_solve_grid``'s solutions ``x``, ground's row (None) read as
    0j: a complex scalar off the first row if ``one``, else an ndarray over every row."""
    plus, minus = rows
    at, zero = (0, 0j) if one else (slice(None), np.zeros(len(x), dtype=complex))
    return (zero if plus is None else x[at, plus]) - (zero if minus is None else x[at, minus])


def _probe_gain(netlist: Netlist, probe: tuple[int, int]):
    """gain_db(f, caps=None): the gain in dB across ``probe`` for a unit source.

    ``f`` is one float, or an ndarray of points that a ``FrequencyGrid``
    would hold; neither is checked. The netlist's kept stamp is solved, or,
    with ``caps``, its ``_restamp`` with those capacitor values; the stamp
    and the probe's rows are looked up once. A float's gain is a float, and
    an ndarray's is ``transfer(...).gain_db()`` of the circuit so changed on
    those points, bit for bit, a non-finite gain raising that sweep's
    ValueError; a point of a grid has its one-float gain. It raises the
    errors of ``solve_ac`` on that circuit.
    """
    stamp, rows = _probe_rows(netlist, probe)

    def gain_db(f, caps=None):
        one = not isinstance(f, np.ndarray)
        x, _ = _solve_grid(stamp if caps is None else _restamp(stamp, caps), (f,) if one else f)
        gain = _across(x, rows, one)
        if one:
            return float(_gain_db(gain))
        if not np.isfinite(np.abs(gain)).all():
            raise ValueError("non-finite gain in sweep result")
        return _gain_db(gain)

    return gain_db


def sweep_csv(result: SweepResult, regions: list[str] | None = None) -> str:
    """Render a sweep as CSV (freq_hz,gain_re,gain_im,gain_db,phase_deg[,region]).

    Floats use 9 significant digits so repeated runs are byte-identical.
    """
    header = "freq_hz,gain_re,gain_im,gain_db,phase_deg"
    row = "\n%.9g,%.9g,%.9g,%.9g,%.9g"
    columns = [result.freqs.tolist(), result.gain.real.tolist(), result.gain.imag.tolist(),
               result.gain_db().tolist(), np.degrees(np.angle(result.gain)).tolist()]
    if regions is not None:
        if len(regions) != len(result.freqs):
            raise ValueError("region column length mismatch")
        header += ",region"
        row += ",%s"
        columns.append(regions)
    # one % over the values in row order formats every row
    body = row * len(result.freqs) % tuple(chain.from_iterable(zip(*columns)))
    return header + body + "\n"
