"""Frequency-domain circuit solving via complex-valued modified nodal analysis.

The netlist is stamped once into real matrices: ``g`` holds the resistor
conductances and the +-1 incidence of each voltage source's branch-current
unknown (standard MNA), ``c`` the capacitances and ``gamma`` the inverse
inductances, so the system at angular frequency w is

    A(w) = g + jw*c + gamma/(jw),    A(w) x = z.

The stamp is kept on the (immutable) netlist, so repeated solves of one
circuit stamp it once. A stamp is a topology and values: the topology,
fixed by the element kinds and nodes, places four entries per element
(and four per source incidence); ground takes a row and column of its
own that are dropped, as are a source's own entries. The values part
sums the element admittances into those places with one bincount, in
element order. A netlist that differs from another only in element
values (``_with_values``, as the calibrations' root-finding steps use)
keeps its topology and reruns only the values part, so it gets the very
matrices a fresh stamp of it would.

A grid is solved in fixed-size frequency blocks: each block's matrices are
built in one buffer of at most 128 KB (or one matrix, if larger), then pass
through one batched partial-pivoting LU solve against ``[z | I]``, which
gives the solution ``x`` in column 0 and the inverse in the rest. Memory
stays flat however long the grid is. Circuits here stay small (up to ~70
unknowns), so no sparsity machinery.

A 2-norm condition number above 1e12 attaches a warning per offending
frequency, in grid order, rather than failing; a singular system raises
:class:`SingularCircuitError` for the first singular frequency. The
inverse screens for both: ``U = |A|_F * |inv(A)|_F`` bounds cond_2 from
above, and a frequency with ``U <= 1e10`` is cleared. The factor 100 below
the threshold covers the rounding of the computed inverse: a backward-stable
LU with residual ``|A X - I| <= n u rho |A| |X|`` (unit roundoff u, element
growth rho) gives ``|X| >= |inv(A)| / (1 + cond * n u rho)``, so every
frequency with cond_2 > 1e12 still reads U > 1e10 for growth up to about
1e4 at 66 unknowns. The frequencies not cleared (NaN or inf included), and
a whole block whose LU hits an exact zero pivot, get the exact check: the
condition number from their singular values, as ``np.linalg.cond`` gives
it. The warnings and errors are therefore those of the SVD check at every
frequency.

A single-frequency solve is the one-point case of the same path, so a
sweep and per-frequency solves give bit-identical results. Netlists and
results are immutable: grid points and sweep gains are read-only float64
and complex128 ndarrays, and a probe's gain in dB, over a sweep or at one
frequency, goes through the one numpy expression ``_gain_db``.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .netlist import Element, Netlist, _require_each, _require_positive

__all__ = [
    "ACSolution",
    "FrequencyGrid",
    "SingularCircuitError",
    "SweepResult",
    "solve_ac",
    "transfer",
    "sweep_csv",
]

COND_WARN_THRESHOLD = 1e12
# Squared bound |A|_F^2 * |inv(A)|_F^2 at or below which a frequency is
# cleared without its singular values: (COND_WARN_THRESHOLD / 100) ** 2.
_CLEARED_BOUND_SQ = (COND_WARN_THRESHOLD / 100.0) ** 2
# Complex entries per frequency block (128 KB): the stacked system matrices
# of one block stay cache-sized however long the grid is.
_BLOCK_ENTRIES = 1 << 13


class SingularCircuitError(ArithmeticError):
    """The MNA system is singular; ``nodes`` lists the implicated node set."""

    def __init__(self, message: str, nodes: tuple[int, ...] = ()):
        self.nodes = nodes
        if nodes:
            message = f"{message} (offending nodes: {list(nodes)})"
        super().__init__(message)


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
    source_labels: tuple[str, ...]
    at: np.ndarray  # bins of the entries, four per element and then four per source
    has_inductor: bool


class _Stamp(NamedTuple):
    """Real MNA matrices of a netlist; ``gamma`` is None without inductors."""

    g: np.ndarray
    c: np.ndarray
    gamma: np.ndarray | None
    rhs: np.ndarray  # shape (1, unknowns, 1 + unknowns): [z | I] for every frequency
    topology: _Topology


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
    return _stamp_values(_topology(netlist), netlist.elements)


def _topology(netlist: Netlist) -> _Topology:
    nodes = netlist.nodes()
    nodes.discard(netlist.ground)
    index = dict(zip(sorted(nodes), range(len(nodes))))
    elements = netlist.elements
    sources = tuple(k for k, e in enumerate(elements) if e.kind == "V")
    n, size = len(index), len(index) + len(sources)
    # Ground is stamped like any node, in a last row and column that are
    # dropped: (4, size + 1, size + 1) stacked matrices, row-major.
    width = size + 1
    row = {**index, netlist.ground: size}
    base = {kind: m * width * width for kind, m in _MATRIX.items()}
    at: list[int] = []
    for element in elements:
        a, b = element.nodes
        i, j = row[a], row[b]
        ii, jj = base[element.kind] + i * width, base[element.kind] + j * width
        at += (ii + i, jj + j, ii + j, jj + i)
    for r, k in enumerate(sources, start=n):
        a, b = elements[k].nodes
        i, j = row[a], row[b]
        at += (i * width + r, r * width + i, j * width + r, r * width + j)
    return _Topology(index, sources, tuple(elements[k].label for k in sources),
                     np.fromiter(at, np.intp, len(at)), any(e.kind == "L" for e in elements))


def _stamp_values(topology: _Topology, elements: tuple[Element, ...]) -> _Stamp:
    """The stamp of ``elements`` laid out by ``topology``.

    One bincount sums every entry in element order, so a netlist stamped
    fresh and one restamped on another's topology get the same matrices.
    """
    sources = topology.sources
    n, size = len(topology.index), len(topology.index) + len(sources)
    y = [1.0 / e.value if e.kind in ("R", "L") else e.value for e in elements]
    y += [1.0] * len(sources)  # the unit incidence of each branch current
    weights = (np.fromiter(y, float, len(y))[:, None] * _SIGNS).ravel()
    width = size + 1
    m = np.bincount(topology.at, weights, 4 * width * width)
    m = np.ascontiguousarray(m.reshape(4, width, width)[:3, :size, :size])
    m.setflags(write=False)
    g, c, gamma = m
    rhs = np.zeros((1, size, 1 + size), dtype=complex)
    rhs.reshape(-1)[1::size + 2] = 1.0  # the identity: entry (i, 1 + i) of each row i
    for row, k in enumerate(sources, start=n):
        rhs[0, row, 0] = elements[k].value
    rhs.setflags(write=False)
    return _Stamp(g, c, gamma if topology.has_inductor else None, rhs, topology)


def _with_values(netlist: Netlist, values: dict[str, float]) -> Netlist:
    """``netlist`` with the elements labelled in ``values`` set to those values.

    Each new value passes Element's own check. Nodes and labels stay, so the
    netlist's topology checks still hold and are not repeated, and the new
    stamp reuses the netlist's stamp topology.
    """
    elements = tuple(replace(e, value=values[e.label]) if e.label in values else e
                     for e in netlist.elements)
    restamped = object.__new__(Netlist)
    # Netlist is frozen: its fields are copied without a second validation,
    # and the stamp rides along as _stamp keeps it.
    restamped.__dict__.update(netlist.__dict__, elements=elements,
                              _mna=_stamp_values(_stamp(netlist).topology, elements))
    return restamped


def _sum_sq(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix in a (k, rows, cols) complex stack."""
    v = a.view(float)  # real and imaginary parts side by side
    return np.einsum("kij,kij->k", v, v)


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


def _singular(a: np.ndarray, f: float, index: dict[int, int]) -> SingularCircuitError:
    return SingularCircuitError(f"singular MNA system at f={f:g} Hz", _singular_nodes(a, index))


def _check_condition(a: np.ndarray, f: np.ndarray, points: list[int],
                     index: dict[int, int], warnings: list[str]) -> None:
    """The exact SVD check of ``a[k]`` for each k in ``points`` (ascending).

    Appends the ill-conditioning warnings in order and raises for the first
    singular point.
    """
    if not points:
        return
    s = np.linalg.svd(a[points], compute_uv=False)
    for k, singular_values in zip(points, s.tolist()):
        s_max, s_min = singular_values[0], singular_values[-1]
        if s_min == 0.0:
            raise _singular(a[k], f[k], index)
        cond = s_max / s_min  # the 2-norm condition number, as np.linalg.cond gives it
        if cond > COND_WARN_THRESHOLD:
            warnings.append(f"ill-conditioned MNA system at f={f[k]:g} Hz (cond~{cond:.3g})")


def _solve_grid(netlist: Netlist, freqs) -> tuple[np.ndarray, _Stamp, list[str]]:
    """Solve the MNA system at every frequency in ``freqs`` (hertz, > 0).

    Returns the ``(len(freqs), unknowns)`` solutions, the stamp that gives
    their row layout, and the ill-conditioning warnings in grid order.
    """
    stamp = _stamp(netlist)
    freqs = np.asarray(freqs, dtype=float)
    index = stamp.topology.index
    size = len(index) + len(stamp.topology.sources)
    block = max(1, _BLOCK_ENTRIES // (size * size))
    x = np.empty((len(freqs), size), dtype=complex)
    buffer = np.empty((min(block, len(freqs)), size, size), dtype=complex)
    warnings: list[str] = []
    for start in range(0, len(freqs), block):
        f = freqs[start:start + block]
        a = buffer[:len(f)]
        omega = (2.0 * math.pi * f)[:, None, None]
        a.real = stamp.g
        np.multiply(omega, stamp.c, out=a.imag)
        if stamp.gamma is not None:
            a.imag -= stamp.gamma / omega
        try:
            solution = np.linalg.solve(a, stamp.rhs)
        except np.linalg.LinAlgError:
            _check_condition(a, f, list(range(len(f))), index, warnings)
            # An exact zero pivot the singular values missed: name its frequency.
            for k in range(len(f)):
                try:
                    np.linalg.solve(a[k], stamp.rhs[0, :, :1])
                except np.linalg.LinAlgError:
                    raise _singular(a[k], f[k], index) from None
            raise
        # Upper bound on cond_2, squared; written so that a NaN bound is not cleared.
        bound_sq = (_sum_sq(a) * _sum_sq(solution[..., 1:])).tolist()
        suspect = [k for k, u in enumerate(bound_sq) if not u <= _CLEARED_BOUND_SQ]
        _check_condition(a, f, suspect, index, warnings)
        x[start:start + len(f)] = solution[..., 0]
    return x, stamp, warnings


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
    x, stamp, warnings = _solve_grid(netlist, (f,))
    row = x[0].tolist()
    index = stamp.topology.index  # the nodes in row order; the source currents follow them
    solution = ACSolution({netlist.ground: 0j},
                          zip(stamp.topology.source_labels, row[len(index):]), warnings)
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
    nodes = netlist.nodes()
    for p in probe:
        if p not in nodes:
            raise ValueError(f"probe node {p} not present in netlist")
    x, stamp, warnings = _solve_grid(netlist, grid.points)
    plus, minus = (np.zeros(len(x), dtype=complex) if node == netlist.ground
                   else x[:, stamp.topology.index[node]] for node in probe)
    return SweepResult(freqs=grid.points, gain=(plus - minus) / source.value,
                       warnings=tuple(warnings))


def sweep_csv(result: SweepResult, regions: list[str] | None = None) -> str:
    """Render a sweep as CSV (freq_hz,gain_re,gain_im,gain_db,phase_deg[,region]).

    Floats use 9 significant digits so repeated runs are byte-identical.
    """
    header = "freq_hz,gain_re,gain_im,gain_db,phase_deg"
    if regions is not None:
        if len(regions) != len(result.freqs):
            raise ValueError("region column length mismatch")
        header += ",region"
    lines = [header]
    db = result.gain_db().tolist()
    ph = np.degrees(np.angle(result.gain)).tolist()
    for i, (f, g) in enumerate(zip(result.freqs.tolist(), result.gain.tolist())):
        row = f"{f:.9g},{g.real:.9g},{g.imag:.9g},{db[i]:.9g},{ph[i]:.9g}"
        if regions is not None:
            row += f",{regions[i]}"
        lines.append(row)
    return "\n".join(lines) + "\n"
