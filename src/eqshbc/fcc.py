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

import functools
import math
from dataclasses import dataclass
from importlib import resources

from .netlist import _require_finite, _require_positive
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


def fcc_limit(f: float) -> tuple[float, float]:
    """(limit in uV/m, measurement distance in m) for the row containing f."""
    _require_finite("frequency", f)
    table = limit_table()
    if f < table[0].f_low_hz:
        raise ValueError(f"{f:g} Hz is below the table floor of 9 kHz")
    for row in table:  # the rows partition the band upward from the floor
        if f < row.f_high_hz:
            return row.limit_uv_per_m(f), row.distance_m
    raise AssertionError("open-ended final row should contain any frequency")


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


def _compliance_row(model: FieldDecayModel, f: float) -> dict:
    limit_uv, distance = fcc_limit(f)
    field = field_at(model, distance)
    margin = (limit_uv * 1e-6) / field
    return {
        "freq_hz": f,
        "limit_uv_per_m": limit_uv,
        "distance_m": distance,
        "field_uv_per_m": field * 1e6,
        "margin_factor": margin,
        "compliant": bool(margin > 1.0),
    }


def margin_factor(model: FieldDecayModel, f: float) -> float:
    """Limit over modeled field at the row's measurement distance; > 1 is compliant."""
    return _compliance_row(model, f)["margin_factor"]


@dataclass(frozen=True)
class ComplianceReport:
    compliant: bool
    rows: tuple[dict, ...]


def is_unintentional_radiator(model: FieldDecayModel, freqs: FrequencyGrid) -> ComplianceReport:
    """Check the decay model against the limit at every grid frequency.

    Each row is :func:`margin_factor`'s computation at one frequency.
    """
    rows = tuple(_compliance_row(model, f) for f in freqs)
    return ComplianceReport(compliant=all(r["compliant"] for r in rows), rows=rows)
