"""Frequency-domain circuit solving via complex-valued modified nodal analysis.

The netlist is stamped once into real matrices: ``g`` holds the resistor
conductances and the +-1 incidence of each voltage source's branch-current
unknown (standard MNA), ``c`` the capacitances and ``gamma`` the inverse
inductances, so the system at angular frequency w is

    A(w) = g + jw*c + gamma/(jw),    A(w) x = z.

The stamp is kept on the (immutable) netlist, so repeated solves of one
circuit stamp it once.

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
results are immutable.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .netlist import Element, Netlist, _require_positive

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
    raised during the solve.
    """

    def __init__(self, voltages: dict[int, complex], source_currents: dict[str, complex],
                 warnings: tuple[str, ...] = ()):
        super().__init__(voltages)
        self.source_currents = dict(source_currents)
        self.warnings = tuple(warnings)


class _Stamp(NamedTuple):
    """Real MNA matrices of a netlist; ``gamma`` is None without inductors."""

    g: np.ndarray
    c: np.ndarray
    gamma: np.ndarray | None
    rhs: np.ndarray  # shape (1, unknowns, 1 + unknowns): [z | I] for every frequency
    index: dict[int, int]  # non-ground node -> row
    sources: tuple[Element, ...]  # source k -> row len(index) + k


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
    nodes = netlist.nodes()
    nodes.discard(netlist.ground)
    index = dict(zip(sorted(nodes), range(len(nodes))))
    sources = netlist.sources()
    n, size = len(index), len(index) + len(sources)
    # Entries of g, c and gamma stacked row-major (matrix m, entry (i, j) at
    # m*size*size + i*size + j), summed in element order by bincount.
    at: list[int] = []
    values: list[float] = []
    has_inductor = False
    for element in netlist.elements:
        kind, value, (a, b) = element.kind, element.value, element.nodes
        if kind == "R":
            base, y = 0, 1.0 / value
        elif kind == "C":
            base, y = size * size, value
        elif kind == "L":
            base, y, has_inductor = 2 * size * size, 1.0 / value, True
        else:
            continue
        i, j = index.get(a, -1), index.get(b, -1)
        if i >= 0:
            at.append(base + i * size + i)
            values.append(y)
        if j >= 0:
            at.append(base + j * size + j)
            values.append(y)
        if i >= 0 and j >= 0:
            at += (base + i * size + j, base + j * size + i)
            values += (-y, -y)
    rhs = np.zeros((1, size, 1 + size), dtype=complex)
    rhs.reshape(-1)[1::size + 2] = 1.0  # the identity: entry (i, 1 + i) of each row i
    for row, src in enumerate(sources, start=n):
        for node, sign in ((src.nodes[0], 1.0), (src.nodes[1], -1.0)):
            i = index.get(node, -1)
            if i >= 0:
                at += (i * size + row, row * size + i)
                values += (sign, sign)
        rhs[0, row, 0] = src.value
    m = np.bincount(at, values, 3 * size * size).reshape(3, size, size)
    m.setflags(write=False)
    rhs.setflags(write=False)
    return _Stamp(m[0], m[1], m[2] if has_inductor else None, rhs, index, sources)


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
    size = len(stamp.index) + len(stamp.sources)
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
            _check_condition(a, f, list(range(len(f))), stamp.index, warnings)
            # An exact zero pivot the singular values missed: name its frequency.
            for k in range(len(f)):
                try:
                    np.linalg.solve(a[k], stamp.rhs[0, :, :1])
                except np.linalg.LinAlgError:
                    raise _singular(a[k], f[k], stamp.index) from None
            raise
        # Upper bound on cond_2, squared; written so that a NaN bound is not cleared.
        bound_sq = (_sum_sq(a) * _sum_sq(solution[..., 1:])).tolist()
        suspect = [k for k, u in enumerate(bound_sq) if not u <= _CLEARED_BOUND_SQ]
        _check_condition(a, f, suspect, stamp.index, warnings)
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
    voltages = {netlist.ground: 0j}
    voltages.update(zip(stamp.index, row))  # index lists the nodes in row order
    currents = dict(zip((src.label for src in stamp.sources), row[len(stamp.index):]))
    return ACSolution(voltages, currents, warnings)


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing, positive frequency points in hertz."""

    points: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(float(p) for p in self.points))
        if not self.points:
            raise ValueError("empty frequency grid")
        for p in self.points:
            _require_positive("frequency", p)
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise ValueError("frequencies must be strictly increasing")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @classmethod
    def log(cls, start: float = 1e5, stop: float = 1e9, n: int = 200) -> "FrequencyGrid":
        """Log-spaced grid; defaults cover 100 kHz - 1 GHz."""
        return cls(tuple(np.geomspace(start, stop, n)))

    @classmethod
    def linear(cls, start: float, stop: float, n: int) -> "FrequencyGrid":
        return cls(tuple(np.linspace(start, stop, n)))


@dataclass(frozen=True)
class SweepResult:
    """Per-frequency complex transfer gain (probe voltage / source voltage)."""

    freqs: tuple[float, ...]
    gain: tuple[complex, ...]
    source_label: str
    probe: tuple[int, int]
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if len(self.freqs) != len(self.gain):
            raise ValueError("freqs and gain must have equal length")
        if not all(math.isfinite(abs(g)) for g in self.gain):
            raise ValueError("non-finite gain in sweep result")

    def gain_db(self) -> np.ndarray:
        return np.array([_gain_db(g) for g in self.gain])

    def phase_deg(self) -> np.ndarray:
        return np.degrees([cmath.phase(g) for g in self.gain])

    def magnitude(self) -> np.ndarray:
        return np.abs(np.asarray(self.gain))


def _gain_db(gain: complex) -> float:
    """20*log10|gain|, -inf for a zero gain: the one dB conversion of solved gains."""
    return 20.0 * math.log10(abs(gain)) if gain else -math.inf


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

    def voltages(node: int) -> list[complex]:
        if node == netlist.ground:
            return [0j] * len(grid)
        return x[:, stamp.index[node]].tolist()

    gains = tuple((p - m) / source.value for p, m in zip(voltages(probe[0]),
                                                           voltages(probe[1])))
    return SweepResult(freqs=grid.points, gain=gains, source_label=source_label,
                       probe=probe, warnings=tuple(warnings))


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
    db = result.gain_db()
    ph = result.phase_deg()
    for i, (f, g) in enumerate(zip(result.freqs, result.gain)):
        row = f"{f:.9g},{g.real:.9g},{g.imag:.9g},{db[i]:.9g},{ph[i]:.9g}"
        if regions is not None:
            row += f",{regions[i]}"
        lines.append(row)
    return "\n".join(lines) + "\n"
