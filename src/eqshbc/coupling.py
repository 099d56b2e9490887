"""Inter-body coupling capacitance C_C(d) and the flat-band coupling ratio.

Two bodies at distance d couple through C_C(d) = a/(d + d0) + b, a
saturating 1/d law with a far-distance tail b. In the EQS flat band the
voltage one body picks up from the other is the ratio C_C(d)/c_body of
the coupling to the body's self capacitance. These closed forms are all
that the snooping and interference analyses need, so this module uses
no numpy and builds no circuit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .netlist import _require_non_negative, _require_positive

__all__ = [
    "CouplingCapModel",
    "DEFAULT_C_BODY",
    "DEFAULT_COUPLING_ANCHORS",
    "DEFAULT_COUPLING_D0",
    "DEFAULT_COUPLING_MODEL",
    "coupling_coefficient",
    "default_coupling_model",
    "fit_coupling_model",
]

# Inter-body coupling capacitance anchors (distance m, farads) used for the
# default C_C(d) model, with the saturating-offset distance below. A pure
# 1/d form would exceed c_body at 10 cm; the offset keeps C_C(0.1 m) near
# 77 pF so close-range analyses stay meaningful.
DEFAULT_COUPLING_ANCHORS = ((1.0, 21e-12), (5.0, 6.6e-12))
DEFAULT_COUPLING_D0 = 0.2

DEFAULT_C_BODY = 150e-12  # body-to-earth self capacitance, farads


@dataclass(frozen=True)
class CouplingCapModel:
    """Saturating inter-body coupling capacitance C_C(d) = a/(d + d0) + b."""

    a: float   # farad * meters
    d0: float  # meters
    b: float   # farads, the far-distance tail

    def __post_init__(self):
        _require_positive("a", self.a)
        _require_positive("d0", self.d0)
        _require_non_negative("b", self.b)

    def cap_at(self, d: float) -> float:
        _require_non_negative("distance", d)
        return self.a / (d + self.d0) + self.b

    def distance_at(self, c: float) -> float:
        """Inverse of cap_at: inf at or below the tail b, 0 at or above C_C(0)."""
        _require_non_negative("capacitance", c)
        if c <= self.b:
            return math.inf
        if c >= self.cap_at(0.0):
            return 0.0
        return self.a / (c - self.b) - self.d0


def fit_coupling_model(anchors, d0: float = DEFAULT_COUPLING_D0) -> CouplingCapModel:
    """Fit a, b of C_C(d) = a/(d+d0) + b to (distance, farads) anchors.

    Exact for two anchors, least squares for more. Degenerate distances or
    a non-decreasing fit (a <= 0 or b < 0) are rejected.
    """
    anchors = [(float(d), float(c)) for d, c in anchors]
    if len(anchors) < 2:
        raise ValueError("need at least 2 anchors")
    for d, c in anchors:
        _require_non_negative("anchor_distance", d)
        _require_positive("anchor_capacitance", c)
    _require_positive("d0", d0)
    # Least-squares line C = a*u + b through the points (u, C), u = 1/(d + d0).
    u = [1.0 / (d + d0) for d, _ in anchors]
    if len(set(u)) != len(u):
        raise ValueError("anchor distances must be distinct")
    u_mean = math.fsum(u) / len(u)
    c_mean = math.fsum(c for _, c in anchors) / len(u)
    a = (math.fsum((ui - u_mean) * (c - c_mean) for ui, (_, c) in zip(u, anchors))
         / math.fsum((ui - u_mean) ** 2 for ui in u))
    b = c_mean - a * u_mean
    if a <= 0 or b < 0:
        raise ValueError(f"fit is not a decreasing coupling model (a={a:g}, b={b:g})")
    return CouplingCapModel(a=a, d0=d0, b=b)


# C_C(d) fitted once to the default 1 m / 5 m anchors.
DEFAULT_COUPLING_MODEL = fit_coupling_model(DEFAULT_COUPLING_ANCHORS, DEFAULT_COUPLING_D0)


def default_coupling_model() -> CouplingCapModel:
    """C_C(d) fitted to the default 1 m / 5 m anchors: DEFAULT_COUPLING_MODEL."""
    return DEFAULT_COUPLING_MODEL


def coupling_coefficient(model: CouplingCapModel, d: float,
                         c_body: float = DEFAULT_C_BODY) -> float:
    """Linear flat-band voltage ratio C_C(d)/c_body at distance d."""
    _require_positive("c_body", c_body)
    return model.cap_at(d) / c_body
