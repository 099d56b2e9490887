"""Security and interference analysis for capacitively coupled body channels.

A snooper standing at distance d picks up the on-body signal attenuated by
the flat-band coupling ratio C_C(d)/c_body, so its SNR is the intended
receiver's SNR plus 20*log10 of that ratio. On-off keying needs roughly
6 dB of SNR, which sets the default feasibility threshold. Interference
from N co-channel users adds the same way; interferer voltages add
linearly (coherent worst case), which is also the literal reading of the
voltage-sum SIR definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coupling import (
    DEFAULT_C_BODY,
    DEFAULT_COUPLING_MODEL,
    CouplingCapModel,
    coupling_coefficient,
)
from .netlist import _require_finite, _require_non_negative, _require_positive

__all__ = [
    "AttackScenario",
    "InterferenceScenario",
    "MAX_COCHANNEL_USERS",
    "UnboundedResult",
    "attack_report",
    "is_attack_feasible",
    "max_cochannel_users",
    "max_safe_snr",
    "min_safe_distance",
    "sir_db",
    "snooper_snr_db",
]

MAX_COCHANNEL_USERS = 10 ** 6
DISTANCE_CAP_M = 100.0


class UnboundedResult(RuntimeError):
    """No finite answer below the distance cap (e.g. unsafe at every distance)."""


@dataclass(frozen=True)
class AttackScenario:
    """Snooping attempt against a link with a known receiver-side SNR."""

    snr_intended_db: float
    attacker_distance: float
    snr_threshold_db: float = 6.0
    coupling: CouplingCapModel = DEFAULT_COUPLING_MODEL
    c_body: float = DEFAULT_C_BODY

    def __post_init__(self):
        _require_finite("snr_intended_db", self.snr_intended_db)
        _require_finite("snr_threshold_db", self.snr_threshold_db)
        _require_non_negative("attacker_distance", self.attacker_distance)
        _require_positive("c_body", self.c_body)


@dataclass(frozen=True)
class InterferenceScenario:
    """One considered user plus co-channel interferers at given distances."""

    v_sig_user: float
    interferers: tuple[tuple[float, float], ...] = ()
    coupling: CouplingCapModel = DEFAULT_COUPLING_MODEL
    c_body: float = DEFAULT_C_BODY

    def __post_init__(self):
        object.__setattr__(self, "interferers",
                           tuple((float(v), float(d)) for v, d in self.interferers))
        _require_positive("v_sig_user", self.v_sig_user)
        _require_positive("c_body", self.c_body)
        for v, d in self.interferers:
            _require_positive("interferer_amplitude", v)
            _require_positive("interferer_distance", d)


def snooper_snr_db(scenario: AttackScenario) -> float:
    """SNR seen by a snooper at the scenario's distance."""
    ratio = coupling_coefficient(scenario.coupling, scenario.attacker_distance, scenario.c_body)
    return scenario.snr_intended_db + 20.0 * math.log10(ratio)


def is_attack_feasible(scenario: AttackScenario) -> bool:
    """True when the snooper clears the demodulation threshold (boundary inclusive)."""
    return snooper_snr_db(scenario) >= scenario.snr_threshold_db


def min_safe_distance(snr_intended_db: float, threshold_db: float,
                      coupling: CouplingCapModel = DEFAULT_COUPLING_MODEL,
                      c_body: float = DEFAULT_C_BODY) -> float:
    """Smallest distance at which an attack becomes infeasible.

    Closed form: the distance where C_C(d) = c_body * 10^((threshold -
    snr_intended)/20). Returns 0.0 when snooping already fails at contact
    range, as it does when that capacitance is past the float range.
    Raises :class:`UnboundedResult` when the snooper stays above threshold
    out to the 100 m cap (possible when the coupling model's far tail is
    non-zero).
    """
    _require_finite("snr_intended_db", snr_intended_db)
    _require_finite("threshold_db", threshold_db)
    _require_positive("c_body", c_body)
    try:
        c = c_body * 10.0 ** ((threshold_db - snr_intended_db) / 20.0)
    except OverflowError:
        c = math.inf
    if c == math.inf:  # more than any coupling gives: snooping fails at contact range
        return 0.0
    d = coupling.distance_at(c)
    if d >= DISTANCE_CAP_M:
        raise UnboundedResult(
            f"snooper SNR stays at or above {threshold_db:g} dB out to "
            f"{DISTANCE_CAP_M:g} m; no finite safe distance")
    return d


def max_safe_snr(threshold_db: float, d_protect: float,
                 coupling: CouplingCapModel = DEFAULT_COUPLING_MODEL,
                 c_body: float = DEFAULT_C_BODY) -> float:
    """Largest intended SNR that keeps attacks infeasible at d >= d_protect."""
    _require_finite("threshold_db", threshold_db)
    _require_positive("d_protect", d_protect)
    _require_positive("c_body", c_body)
    return threshold_db - 20.0 * math.log10(coupling_coefficient(coupling, d_protect, c_body))


def sir_db(scenario: InterferenceScenario) -> float:
    """Signal-to-interference ratio at the considered user's body.

    Interferer contributions add as voltages. An empty interferer list
    yields +inf.
    """
    if not scenario.interferers:
        return math.inf
    v_intf = sum(v * coupling_coefficient(scenario.coupling, d, scenario.c_body)
                 for v, d in scenario.interferers)
    return 20.0 * math.log10(scenario.v_sig_user / v_intf)


def max_cochannel_users(v_sig_user: float, v_sig_each: float, d_each: float,
                        sir_min_db: float,
                        coupling: CouplingCapModel = DEFAULT_COUPLING_MODEL,
                        c_body: float = DEFAULT_C_BODY) -> int:
    """Largest N identical interferers at d_each with SIR still >= sir_min_db.

    Capped at MAX_COCHANNEL_USERS when the coupling tail makes any number
    tolerable, or the bound is past the float range; 0 when the SIR floor's
    factor 10^(sir_min/20) is.
    """
    _require_positive("v_sig_user", v_sig_user)
    _require_positive("v_sig_each", v_sig_each)
    _require_positive("d_each", d_each)
    _require_positive("c_body", c_body)
    _require_finite("sir_min_db", sir_min_db)
    ratio = coupling_coefficient(coupling, d_each, c_body)
    try:
        floor = 10.0 ** (sir_min_db / 20.0)
    except OverflowError:
        return 0
    # sir(N) >= sir_min  <=>  N <= v_user / (v_each * ratio * 10^(sir_min/20))
    per_user = v_sig_each * ratio * floor
    bound = v_sig_user / per_user if per_user else math.inf
    if bound >= MAX_COCHANNEL_USERS:
        return MAX_COCHANNEL_USERS
    return max(0, math.floor(bound * (1.0 + 1e-12)))


def attack_report(scenario: AttackScenario) -> dict:
    """JSON-ready record of the attack analysis."""
    snr = snooper_snr_db(scenario)
    try:
        safe_d = min_safe_distance(scenario.snr_intended_db, scenario.snr_threshold_db,
                                   scenario.coupling, scenario.c_body)
    except UnboundedResult:
        safe_d = None
    return {
        "snr_intended_db": scenario.snr_intended_db,
        "attacker_distance_m": scenario.attacker_distance,
        "snr_threshold_db": scenario.snr_threshold_db,
        "snooper_snr_db": snr,
        "feasible": bool(snr >= scenario.snr_threshold_db),
        "min_safe_distance_m": safe_d,
        "max_safe_snr_db": (max_safe_snr(scenario.snr_threshold_db,
                                         scenario.attacker_distance,
                                         scenario.coupling, scenario.c_body)
                            if scenario.attacker_distance > 0 else None),
    }
