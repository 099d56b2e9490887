"""Lumped circuit models for intra-body and inter-body capacitive EQS-HBC.

The transmitter drives the body through a source resistance; the loop
closes through the parasitic device-ground capacitances (c_g_tx, c_g_rx)
to earth. The body is a single quasistatic node shunted to earth by
c_body. A second, capacitively coupled body picks up part of the first
body's potential through the coupling capacitance c_c.

Coupling is modeled as a re-partition of each body's fixed self
capacitance rather than as extra capacitance bolted on: the receiving
body's earth capacitance drops to (c_body2 - c_c), and the transmitting
body's earth capacitance drops by the series capacitance its coupling
branch presents. Under that convention the solved inter/intra gain ratio
in the flat EQS band tracks 20*log10(c_c/c_body) to well under 0.1 dB for
any c_c up to c_body, which is the closed-form oracle this module is
checked against (see extra_loss_db).
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace

# DEFAULT_COUPLING_ANCHORS and DEFAULT_COUPLING_D0 (read here by perfbench) and
# default_coupling_model (by tests/test_acceptance.py) are re-exported.
from .coupling import (
    DEFAULT_C_BODY,
    DEFAULT_COUPLING_ANCHORS,
    DEFAULT_COUPLING_D0,
    default_coupling_model,
)
from .netlist import Element, Netlist, ParameterError, _require_positive
from . import solver
from .solver import FrequencyGrid, SweepResult, _gain_db, transfer

__all__ = [
    "ANECHOIC_RETURN_BOOST",
    "BodyChannelParams",
    "Environment",
    "INTRA_PROBE",
    "INTER_PROBE",
    "InterBodyParams",
    "LoadSpec",
    "SOURCE_LABEL",
    "build_intra_body",
    "build_inter_body",
    "calibrate_anechoic_boost",
    "calibrate_return_scale",
    "extra_loss_db",
    "intra_body_gain_db",
    "inter_body_gain_db",
    "scale_return_path",
]

# Chamber return-path boost on (c_g_tx, c_g_rx), calibrated so the solved
# inter-body EQS gain at 500 kHz rises 10.000 dB over open air with the
# default parameter set. Recomputable via calibrate_anechoic_boost().
ANECHOIC_RETURN_BOOST = 2.1271633

SOURCE_LABEL = "VTX"
INTRA_PROBE = (4, 5)   # receiver electrode, receiver floating ground
INTER_PROBE = (5, 6)


class Environment(str, enum.Enum):
    OPEN_AIR = "open_air"
    ANECHOIC = "anechoic"


@dataclass(frozen=True)
class LoadSpec:
    """Receiver termination: resistive (ohms) or capacitive (farads)."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("resistive", "capacitive"):
            raise ValueError(f"load kind must be 'resistive' or 'capacitive', got {self.kind!r}")
        _require_positive("load value", self.value)

    @classmethod
    def resistive(cls, ohms: float = 50.0) -> "LoadSpec":
        return cls("resistive", ohms)

    @classmethod
    def capacitive(cls, farads: float = 1e-12) -> "LoadSpec":
        return cls("capacitive", farads)

    def element(self, n_plus: int, n_minus: int) -> Element:
        if self.kind == "resistive":
            return Element("R", self.value, (n_plus, n_minus), "RL")
        return Element("C", self.value, (n_plus, n_minus), "CL")


@dataclass(frozen=True)
class BodyChannelParams:
    """Canonical intra-body channel parameters.

    Defaults: coupler-plate return capacitances of 0.6 pF, body-to-earth
    capacitance of 150 pF, 50 ohm source resistance, 1 kohm forward body
    resistance (the return-path impedances dominate EQS loss, so r_b is
    not calibration-critical), 1 pF capacitive load.
    """

    c_g_tx: float = 0.6e-12
    c_g_rx: float = 0.6e-12
    c_body: float = DEFAULT_C_BODY
    r_b: float = 1e3
    r_s: float = 50.0
    load: LoadSpec = None  # type: ignore[assignment]
    environment: Environment = Environment.OPEN_AIR
    anechoic_boost: float = ANECHOIC_RETURN_BOOST

    def __post_init__(self):
        if self.load is None:
            object.__setattr__(self, "load", LoadSpec.capacitive())
        try:
            object.__setattr__(self, "environment", Environment(self.environment))
        except ValueError:
            raise ParameterError("{} must be 'open_air' or 'anechoic', got {got}", "environment",
                                 got=json.dumps(self.environment, default=repr)) from None
        for name in ("c_g_tx", "c_g_rx", "c_body", "r_b", "r_s", "anechoic_boost"):
            _require_positive(name, getattr(self, name))


def _return_caps(params: BodyChannelParams, scale: float) -> dict[str, float]:
    """Stamped CGTX and CGRX: both scaled by ``scale``, then the chamber boost, if any.

    Float for float the return capacitances of a circuit built from
    ``scale_return_path(params, scale)`` (in open air the boost is 1.0,
    which changes no float); the circuit builders pass 1.0.
    """
    boost = params.anechoic_boost if params.environment is Environment.ANECHOIC else 1.0
    return {"CGTX": params.c_g_tx * scale * boost, "CGRX": params.c_g_rx * scale * boost}


@dataclass(frozen=True)
class InterBodyParams:
    """Two-body scenario: transmitter on body 1, receiver on body 2."""

    base: BodyChannelParams
    c_c: float
    c_body2: float | None = None

    def __post_init__(self):
        if self.c_body2 is None:
            object.__setattr__(self, "c_body2", self.base.c_body)
        _require_positive("c_c", self.c_c)
        _require_positive("c_body2", self.c_body2)
        if self.c_c > self.c_body2:
            raise ParameterError(f"{{}} ({self.c_c}) exceeds the receiving body's self capacitance "
                                 f"({self.c_body2}); the re-partition model requires {{}} <= {{}}",
                                 "c_c", "c_c", "c_body2")
        if self.base.c_body <= self._branch_series_cap():
            raise ParameterError("{} too small for the coupling branch re-partition of {} and {}",
                                 "c_body", "c_c", "c_body2")

    def _branch_series_cap(self) -> float:
        # Capacitance body 1 presents toward ground through body 2.
        return self.c_c * (self.c_body2 - self.c_c) / self.c_body2


def build_intra_body(params: BodyChannelParams) -> Netlist:
    """Single-body channel circuit.

    Nodes: 0 earth ground, 1 source output, 2 transmitter floating ground,
    3 body, 4 receiver electrode, 5 receiver floating ground. Probe the
    transfer across the load with INTRA_PROBE.
    """
    caps = _return_caps(params, 1.0)
    elements = (
        Element("V", 1.0, (1, 2), SOURCE_LABEL),
        Element("R", params.r_s, (1, 3), "RS"),
        Element("C", caps["CGTX"], (2, 0), "CGTX"),
        Element("C", params.c_body, (3, 0), "CBODY"),
        Element("R", params.r_b, (3, 4), "RB"),
        params.load.element(4, 5),
        Element("C", caps["CGRX"], (5, 0), "CGRX"),
    )
    return Netlist(elements=elements)


def build_inter_body(params: InterBodyParams) -> Netlist:
    """Two-body channel circuit with re-partitioned self capacitances.

    Nodes: 0 earth ground, 1 source output, 2 transmitter floating ground,
    3 body 1, 4 body 2, 5 receiver electrode, 6 receiver floating ground.
    Probe across the load with INTER_PROBE. Zero-valued ground capacitors
    (c_c == c_body2) are simply omitted.
    """
    base = params.base
    caps = _return_caps(base, 1.0)
    c_gnd2 = params.c_body2 - params.c_c
    c_gnd1 = base.c_body - params._branch_series_cap()
    elements = [
        Element("V", 1.0, (1, 2), SOURCE_LABEL),
        Element("R", base.r_s, (1, 3), "RS"),
        Element("C", caps["CGTX"], (2, 0), "CGTX"),
        Element("C", c_gnd1, (3, 0), "CBODY1"),
        Element("C", params.c_c, (3, 4), "CC"),
        Element("R", base.r_b, (4, 5), "RB"),
        base.load.element(5, 6),
        Element("C", caps["CGRX"], (6, 0), "CGRX"),
    ]
    if c_gnd2 > 0:
        elements.append(Element("C", c_gnd2, (4, 0), "CBODY2"))
    return Netlist(elements=tuple(elements))


def _probe_gain_db(netlist: Netlist, probe: tuple[int, int], f: float) -> float:
    """Single-frequency gain in dB across probe for the unit source.

    The one-point case of ``transfer(...).gain_db()``, bit for bit: one
    point of ``solver._solve_grid`` on the netlist's kept stamp, with ground
    at 0j, so it builds no ACSolution; it raises the errors of ``solve_ac``.
    """
    _require_positive("frequency", f)
    stamp = solver._stamp(netlist)
    x, _ = solver._solve_grid(stamp, (f,))
    index = stamp.topology.index
    plus, minus = (0j if node == netlist.ground else x[0, index[node]] for node in probe)
    return float(_gain_db(plus - minus))


def intra_body_gain_db(params: BodyChannelParams, f: float) -> float:
    return _probe_gain_db(build_intra_body(params), INTRA_PROBE, f)


def inter_body_gain_db(params: InterBodyParams, f: float) -> float:
    return _probe_gain_db(build_inter_body(params), INTER_PROBE, f)


def intra_body_sweep(params: BodyChannelParams, grid: FrequencyGrid) -> SweepResult:
    return transfer(build_intra_body(params), SOURCE_LABEL, INTRA_PROBE, grid)


def extra_loss_db(c_c: float, c_body: float) -> float:
    """Inter-body channel loss relative to intra-body: 20*log10(c_c/c_body).

    Closed-form flat-band oracle for the solved circuits above.
    """
    _require_positive("c_c", c_c)
    _require_positive("c_body", c_body)
    return 20.0 * math.log10(c_c / c_body)


def scale_return_path(params: BodyChannelParams, scale: float) -> BodyChannelParams:
    """New parameter set with both return capacitances scaled."""
    _require_positive("scale", scale)
    return replace(params, c_g_tx=params.c_g_tx * scale, c_g_rx=params.c_g_rx * scale)


# ITP tolerance in log x: 2 * eps = 2**-52 is the largest log-width of one
# ulp. Truncation kappa * w**2 uses kappa = 0.2 / (initial log-width).
_ITP_EPS = 2.0 ** -53
_ITP_KAPPA = 0.2


def _bisect_root(fn, lo: float, hi: float) -> float:
    """Sign change of fn in the positive bracket [lo, hi], to full precision.

    ITP (interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS
    2020) in t = log x. Each step takes the regula-falsi point of the
    bracket, moves it toward the midpoint by kappa * w**2 (at least one
    ulp, so the bracket also closes from the far side) and keeps it close
    enough to the midpoint that the bracket still reaches a log-width of
    2 * eps within bisection's ceil(log2(w0 / (2 * eps))) steps; a smooth fn
    needs far fewer. It stops once the geometric midpoint no longer falls
    strictly inside the bracket.
    """
    y_lo, y_hi = fn(lo), fn(hi)
    negative_lo = y_lo < 0.0
    if negative_lo == (y_hi < 0.0):
        raise ValueError(f"no sign change in [{lo:g}, {hi:g}]")
    w0 = max(math.log(hi) - math.log(lo), _ITP_EPS)
    bound = _ITP_EPS * 2.0 ** math.ceil(math.log2(w0 / (2.0 * _ITP_EPS)))
    kappa = _ITP_KAPPA / w0
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi)  # lo * hi may leave the float range
        if not lo < mid < hi:
            return mid
        w = math.log1p((hi - lo) / lo)
        half = 0.5 * w
        t = w * y_lo / (y_lo - y_hi)
        if not 0.0 <= t <= w:
            t = half
        delta = max(kappa * w * w, 2.0 * _ITP_EPS)
        sigma = math.copysign(1.0, half - t)
        t = t + sigma * delta if delta <= abs(half - t) else half
        radius = max(bound - half, 0.0)
        if abs(t - half) > radius:
            t = half - sigma * radius
        bound *= 0.5
        x = mid + mid * math.expm1(t - half)
        if not lo < x < hi:
            x = mid
        y = fn(x)
        if (y < 0.0) == negative_lo:
            lo, y_lo = x, y
        else:
            hi, y_hi = x, y


def _return_path_gain(circuit: Netlist, params: BodyChannelParams, probe: tuple[int, int],
                      f: float):
    """gain(scale): the dB gain across ``probe`` (no ground node) at ``f`` of ``circuit``,
    built from ``params``, with ``scale_return_path(params, scale)``.

    Bit for bit ``_probe_gain_db`` of the rebuilt circuit. ``circuit`` is
    stamped once; each call restamps CGTX and CGRX on that stamp, which
    recomputes only the entries of c that they reach, and solves it at the
    one point through ``solver._solve_grid``, as ``_probe_gain_db`` does
    the rebuilt circuit. So it builds no Element, Netlist or ACSolution, and
    raises the errors that the rebuilt circuit's solve would.
    """
    _require_positive("frequency", f)
    stamp = solver._stamp(circuit)
    plus, minus = (stamp.topology.index[node] for node in probe)

    def gain(scale: float) -> float:
        _require_positive("scale", scale)
        x, _ = solver._solve_grid(solver._restamp(stamp, _return_caps(params, scale)), (f,))
        return float(_gain_db(x[0, plus] - x[0, minus]))

    return gain


def calibrate_anechoic_boost(params: BodyChannelParams | None = None,
                             c_c: float = 21e-12, f: float = 500e3,
                             target_db: float = 10.0) -> float:
    """Return-path boost that lifts the inter-body EQS gain by target_db.

    Used to pin ANECHOIC_RETURN_BOOST; the rise is strictly increasing in
    the boost, so its target crossing is located by :func:`_bisect_root`
    over boosts in [1, 50]. The open-air circuit is built and stamped once;
    each step restamps its return capacitances.
    """
    base = replace(params or BodyChannelParams(), environment=Environment.OPEN_AIR)
    circuit = build_inter_body(InterBodyParams(base=base, c_c=c_c))
    reference = _probe_gain_db(circuit, INTER_PROBE, f)
    gain = _return_path_gain(circuit, base, INTER_PROBE, f)
    return _bisect_root(lambda boost: gain(boost) - reference - target_db, 1.0, 50.0)


def calibrate_return_scale(target_loss_db: float, c_c: float | None = None,
                           params: BodyChannelParams | None = None,
                           f: float = 500e3) -> float:
    """Return-capacitance scale that puts the EQS loss at target_loss_db.

    With ``c_c`` given the target applies to the inter-body channel,
    otherwise to the intra-body channel. This is the regression-anchor
    helper for pinning absolute loss levels (e.g. 60 dB intra-body in a
    chamber, 80 dB inter-body in open air); it makes no physics claim
    about the return capacitances themselves. The gain rises with the
    scale; the target is located by :func:`_bisect_root` over [1e-3, 1e3].
    The circuit is built and stamped once; each step restamps its return
    capacitances.
    """
    _require_positive("target_loss_db", target_loss_db)
    base = params or BodyChannelParams()
    if c_c is None:
        circuit, probe = build_intra_body(base), INTRA_PROBE
    else:
        circuit, probe = build_inter_body(InterBodyParams(base=base, c_c=c_c)), INTER_PROBE
    gain = _return_path_gain(circuit, base, probe, f)
    return _bisect_root(lambda scale: gain(scale) + target_loss_db, 1e-3, 1e3)
