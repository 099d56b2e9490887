"""FCC unintentional-radiator field limits and quasistatic field-decay checks.

The limit table ships as a versioned CSV (``data/fcc_limits_v1.csv``) with
half-open frequency rows [f_low, f_high); the final row is open-ended.
Formula rows express the limit in uV/m as 2400/F or 24000/F with F in kHz.

Radiated field strength is modeled as a calibrated power-law decay
E(d) = anchor_field * (anchor_distance/d)^p with p defaulting to 3
(quasistatic dipole falloff). The default model is pinned so the margin
against the limit at 500 kHz is exactly 2e4; the margin, not the absolute
field scale, is the regression anchor.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING

from .netlist import _require_finite, _require_positive

if TYPE_CHECKING:
    import numpy as np

    from .solver import FrequencyGrid

__all__ = [
    "DEFAULT_FIELD_MODEL",
    "ComplianceReport",
    "FccLimitRow",
    "FieldDecayModel",
    "TABLE_VERSION",
    "fcc_limit",
    "field_at",
    "is_unintentional_radiator",
    "limit_table",
    "margin_factor",
    "parse_limit_table",
    "serialize_limit_table",
]

TABLE_VERSION = "v1"
_TABLE_RESOURCE = f"fcc_limits_{TABLE_VERSION}.csv"
_HEADER = "f_low_hz,f_high_hz,limit_spec,distance_m"


@dataclass(frozen=True)
class FccLimitRow:
    """One row of the limit table; ``limit_spec`` is a formula or a constant in uV/m."""

    f_low_hz: float
    f_high_hz: float
    limit_spec: str
    distance_m: float

    def __post_init__(self):
        _require_positive("f_low_hz", self.f_low_hz)
        _require_positive("distance_m", self.distance_m)
        if not self.f_low_hz < self.f_high_hz:  # f_high may be inf, never NaN
            raise ValueError(f"rows need f_low < f_high, got {self.f_low_hz}, {self.f_high_hz}")
        self.limit_uv_per_m(self.f_low_hz)  # validates the spec string

    def limit_uv_per_m(self, f: float) -> float:
        if self.limit_spec == "2400/F_kHz":
            return 2400.0 / (f / 1e3)
        if self.limit_spec == "24000/F_kHz":
            return 24000.0 / (f / 1e3)
        try:
            limit = float(self.limit_spec)
        except ValueError:
            raise ValueError(f"unknown limit spec {self.limit_spec!r}") from None
        _require_positive("constant_limit", limit)
        return limit


def parse_limit_table(text: str) -> tuple[FccLimitRow, ...]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != _HEADER:
        raise ValueError(f"limit table must start with header {_HEADER!r}")
    rows = []
    for line in lines[1:]:
        f_low, f_high, spec, dist = line.split(",")
        rows.append(FccLimitRow(float(f_low), float(f_high), spec, float(dist)))
    for a, b in zip(rows, rows[1:]):
        if b.f_low_hz != a.f_high_hz:
            raise ValueError("limit rows must partition the band without gaps or overlap")
    return tuple(rows)


def serialize_limit_table(rows: tuple[FccLimitRow, ...]) -> str:
    def num(x: float) -> str:
        return "inf" if math.isinf(x) else f"{int(x)}"

    lines = [_HEADER]
    lines += [f"{num(r.f_low_hz)},{num(r.f_high_hz)},{r.limit_spec},{num(r.distance_m)}"
              for r in rows]
    return "\n".join(lines) + "\n"


@functools.cache
def limit_table() -> tuple[FccLimitRow, ...]:
    text = resources.files("eqshbc.data").joinpath(_TABLE_RESOURCE).read_text()
    return parse_limit_table(text)


def _array(values) -> np.ndarray:
    """A new float64 ndarray of ``values``.

    This module's one numpy call, imported on first use, so that the limit
    table and the field model load without numpy.
    """
    import numpy as np

    return np.array(values, dtype=float)


def _row_runs(points) -> list[tuple[FccLimitRow, slice]]:
    """The table rows that hold the ascending ``points``, each with its slice of them.

    ``points`` is a list or an ndarray; the lookup itself needs no numpy.
    """
    table = limit_table()
    if points[0] < table[0].f_low_hz:
        raise ValueError(f"{points[0]:g} Hz is below the table floor of 9 kHz")
    # The rows partition the band upward from the floor: a point's row is
    # the first whose f_high exceeds it, so a row's run ends at the first
    # point not below its f_high, and the next row's run starts there.
    ends = [bisect.bisect_left(points, row.f_high_hz) for row in table]
    return [(row, slice(lo, hi)) for row, lo, hi in zip(table, [0, *ends], ends) if lo < hi]


def fcc_limit(f: float) -> tuple[float, float]:
    """(limit in uV/m, measurement distance in m) for the row containing f."""
    _require_finite("frequency", f)
    ((row, _),) = _row_runs([f])
    return row.limit_uv_per_m(f), row.distance_m


@dataclass(frozen=True)
class FieldDecayModel:
    """Power-law field decay anchored at a near-field measurement point."""

    anchor_field: float          # V/m at anchor_distance
    anchor_distance: float = 0.1  # meters
    exponent: float = 3.0

    def __post_init__(self):
        _require_positive("anchor_field", self.anchor_field)
        _require_positive("anchor_distance", self.anchor_distance)
        _require_positive("exponent", self.exponent)


# Pinned so margin_factor(500 kHz) == 2e4 exactly: the 30 m field is
# 48 uV/m / 2e4 = 2.4e-9 V/m, i.e. 0.0648 V/m at the 0.1 m anchor for p=3.
DEFAULT_FIELD_MODEL = FieldDecayModel(anchor_field=0.0648)


def field_at(model: FieldDecayModel, d: float) -> float:
    """Field strength in V/m at distance d."""
    _require_positive("distance", d)
    return model.anchor_field * (model.anchor_distance / d) ** model.exponent


def _compliance_columns(model: FieldDecayModel,
                        points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(limit uV/m, distance m, field uV/m, margin factor) at each of the ascending ``points``.

    Each table row's limit and field are evaluated once, on its slice of the points.
    """
    limit, distance, field = _array((points, points, points))  # each filled in below
    for row, run in _row_runs(points):
        limit[run] = row.limit_uv_per_m(points[run])
        distance[run] = row.distance_m
        field[run] = field_at(model, row.distance_m)
    return limit, distance, field * 1e6, (limit * 1e-6) / field


def margin_factor(model: FieldDecayModel, f: float) -> float:
    """Limit over modeled field at the row's measurement distance; > 1 is compliant."""
    _require_finite("frequency", f)
    return _compliance_columns(model, _array([f]))[3].item()


@dataclass(frozen=True)
class ComplianceReport:
    compliant: bool
    rows: tuple[dict, ...]


def is_unintentional_radiator(model: FieldDecayModel, freqs: FrequencyGrid) -> ComplianceReport:
    """Check the decay model against the limit at every grid frequency.

    Each row holds :func:`margin_factor`'s computation at one frequency, as
    Python floats and a bool.
    """
    limit, distance, field_uv, margin = _compliance_columns(model, freqs.points)
    compliant = margin > 1.0
    columns = (freqs.points, limit, distance, field_uv, margin, compliant)
    # tuple() of a list, not of a generator, which resumes its frame once per row
    rows = tuple([{"freq_hz": f, "limit_uv_per_m": lim, "distance_m": d, "field_uv_per_m": e,
                   "margin_factor": m, "compliant": ok}
                  for f, lim, d, e, m, ok in zip(*(column.tolist() for column in columns))])
    return ComplianceReport(compliant=bool(compliant.all()), rows=rows)
