"""Stitched 100 kHz - 1 GHz inter-body coupling response.

Three coupling mechanisms are combined: the quasistatic circuit gain from
:mod:`eqshbc.bodychannel`, a body-as-monopole electromagnetic response,
and direct device-electrode coupling. Each EM mechanism is a resonant
pair response

    P(u) = u^2 / ((1 - u^2)^2 + (u/q)^2),    u = f / f_res

whose dB form rises 40 dB/decade below resonance, peaks at f_res, and
rolls off 40 dB/decade above. Mechanisms add incoherently (power sum);
phase data for a coherent combination is not available at this level of
modeling, and the power sum reproduces the observed sub-40 dB/decade
mid-band slope where quasistatic and EM contributions are comparable.

Reference gains are regression constants pinned so the stitched default
scenario reproduces the anchor behaviors: an 80 dB open-air inter-body
EQS plateau, quasistatic-to-EM dominance handoff near 1 MHz in open air
and near 10 MHz in a shielded chamber (where the return-path boost lifts
the plateau 10 dB and the absorbers attenuate the radiative mechanisms),
and an EM-to-device handoff near 150 MHz. The bundled ``inter_body.cfg``
is the one definition of that pinned scenario; :func:`default_region_config`
reads it.

The mechanism gains take a float frequency (a float out, through ``math``)
or an ndarray of them (an ndarray out, through numpy), validated once per
call. Everything over a frequency grid (the stitched response, the region
labels, the detection distances, the crossover scan) is array arithmetic
over one solved quasistatic sweep.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bodychannel import (
    DEFAULT_COUPLING_MODEL,
    INTER_PROBE,
    SOURCE_LABEL,
    CouplingCapModel,
    Environment,
    InterBodyParams,
    _bisect_root,
    _probe_gain_db,
    build_inter_body,
)
from .netlist import Netlist, _require_each, _require_finite, _require_positive
from .solver import FrequencyGrid, SweepResult, transfer

__all__ = [
    "DEVICE_Q",
    "DeviceModel",
    "EmBodyModel",
    "CrossoverError",
    "RegionConfig",
    "RegionLabel",
    "SPEED_OF_LIGHT",
    "body_em_pair_gain",
    "classify_region",
    "classify_grid",
    "classify_sweep",
    "crossover_frequency",
    "default_region_config",
    "device_pair_gain",
    "friis_gain",
    "max_detection_distance",
    "monopole_rad_resistance",
    "total_response",
]

SPEED_OF_LIGHT = 299_792_458.0

# Electrode resonance sharpness; rigid metal discs resonate more cleanly
# than the lossy body, but nothing downstream is sensitive to the value.
DEVICE_Q = 2.0

# Pinned calibration constants and model defaults (regression anchors, not
# physics claims). Recomputable with calibrate_* below.
EM_REF_OPEN_AIR_DB = 3.8549            # EQS/EM handoff at 1 MHz open air
ANECHOIC_EM_ATTENUATION_DB = 30.9634   # EQS/EM handoff at 10 MHz in-chamber
DEVICE_REF_OPEN_AIR_DB = 15.6885       # EM/device handoff at 150 MHz


class RegionLabel(str, enum.Enum):
    EQS = "EQS"
    EM_SMALL_MONOPOLE = "EM_SmallMonopole"
    EM_RESONANT = "EM_Resonant"
    DEVICE_COUPLING = "DeviceCoupling"


class CrossoverError(ValueError):
    """The requested mechanisms never exchange dominance in band."""


def _require_ref_db(ref_db: float) -> None:
    """A peak reference gain is finite, or -inf to disable its mechanism."""
    if ref_db != -math.inf:
        _require_finite("ref_db", ref_db)


@dataclass(frozen=True)
class EmBodyModel:
    """Body-as-monopole pair response.

    height : subject height in meters; resonance at c/(4*height)
    q : resonance quality factor
    ref_db : pair gain at the resonance peak (-inf disables the mechanism)
    """

    height: float = 1.8
    q: float = 3.0
    ref_db: float = EM_REF_OPEN_AIR_DB

    def __post_init__(self):
        _require_positive("height", self.height)
        _require_positive("q", self.q)
        _require_ref_db(self.ref_db)

    @cached_property
    def f_res(self) -> float:
        return SPEED_OF_LIGHT / (4.0 * self.height)


@dataclass(frozen=True)
class DeviceModel:
    """Electrode-as-monopole pair response, quarter-wave resonance."""

    electrode_length: float = 0.05
    ref_db: float = DEVICE_REF_OPEN_AIR_DB

    def __post_init__(self):
        _require_positive("electrode_length", self.electrode_length)
        _require_ref_db(self.ref_db)

    @cached_property
    def f_res(self) -> float:
        return SPEED_OF_LIGHT / (4.0 * self.electrode_length)


def monopole_rad_resistance(length: float, f: float) -> float:
    """Radiation resistance 80*pi^2*(l/lambda)^2 of an electrically short monopole.

    Valid for l/lambda <= 0.25; beyond that the resonant pair response
    applies and the input is rejected.
    """
    _require_positive("length", length)
    _require_positive("frequency", f)
    ratio = length * f / SPEED_OF_LIGHT
    if ratio > 0.25:
        raise ValueError(
            f"l/lambda = {ratio:.3g} exceeds the short-antenna validity bound 0.25; "
            "use the resonant pair-gain model above quarter-wave")
    return 80.0 * math.pi ** 2 * ratio ** 2


def _resonant_shape_db(f, f_res: float, q: float):
    """Peak-normalized resonant pair response in dB (0 dB at f_res); validates f."""
    if isinstance(f, np.ndarray):
        _require_each(_require_positive, "frequency", f)
        log10 = np.log10
    else:
        _require_positive("frequency", f)
        log10 = math.log10
    u = f / f_res
    # squares as products, as numpy evaluates ** 2: both paths round alike up to the log
    u2, v = u * u, u / q
    return 20.0 * log10(u2 / ((1.0 - u2) * (1.0 - u2) + v * v) / (q * q))


def body_em_pair_gain(model: EmBodyModel, f):
    """Pair gain in dB of two body-monopoles; 40 dB/decade below resonance."""
    return model.ref_db + _resonant_shape_db(f, model.f_res, model.q)


def device_pair_gain(model: DeviceModel, f):
    """Pair gain in dB of the two device electrodes; peaks at c/(4*l_e)."""
    return model.ref_db + _resonant_shape_db(f, model.f_res, DEVICE_Q)


def friis_gain(d, f):
    """Free-space path gain 20*log10(lambda/d), zero-referenced at d = lambda.

    Relative-comparison form: the antenna-gain constant is taken as 0 dB.
    """
    _require_each(_require_positive, "distance", d)
    _require_each(_require_positive, "frequency", f)
    ratio = SPEED_OF_LIGHT / (f * d)
    return 20.0 * (np.log10(ratio) if isinstance(ratio, np.ndarray) else math.log10(ratio))


@dataclass(frozen=True)
class RegionConfig:
    """Calibrated three-mechanism configuration for region analysis."""

    channel: InterBodyParams
    em: EmBodyModel
    device: DeviceModel
    _netlist: Netlist = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_netlist", build_inter_body(self.channel))

    def eqs_gain_db(self, f: float) -> float:
        return _probe_gain_db(self._netlist, INTER_PROBE, f)

    def eqs_sweep(self, grid: FrequencyGrid) -> SweepResult:
        return transfer(self._netlist, SOURCE_LABEL, INTER_PROBE, grid)

    def mechanism_gains_db(self, f):
        """(quasistatic, EM body pair, device electrodes) gains in dB at f."""
        return tuple(self._mechanism_db(mechanism, f) for mechanism in range(3))

    def _mechanism_db(self, mechanism: int, f):
        """One mechanism's gain in dB; an ndarray f solves the circuit as one sweep."""
        if mechanism == 1:
            return body_em_pair_gain(self.em, f)
        if mechanism == 2:
            return device_pair_gain(self.device, f)
        if isinstance(f, np.ndarray):
            return self.eqs_sweep(FrequencyGrid(f)).gain_db()
        return self.eqs_gain_db(f)


def default_region_config(environment: Environment | str = Environment.OPEN_AIR) -> RegionConfig:
    """The pinned default scenario, as defined by the bundled inter_body.cfg.

    Two subjects 1 m apart with a capacitive load; ``environment`` replaces
    the file's own.
    """
    from . import config  # config builds on this module, so import it late

    cfg = config._read_config(config._bundled_path("inter_body.cfg"))
    return config.region_config_from_config(cfg, environment)


def total_response(eqs_sweep: SweepResult, em: EmBodyModel, device: DeviceModel) -> SweepResult:
    """Incoherent (power-sum) combination of the three mechanisms.

    The result is magnitude-only; it dominates every individual mechanism
    at every frequency and degenerates to the quasistatic sweep when both
    EM references are -inf. It is taken at the sweep's own frequencies.
    """
    f = eqs_sweep.freqs
    em_db, dev_db = body_em_pair_gain(em, f), device_pair_gain(device, f)
    power = np.abs(eqs_sweep.gain) ** 2 + (10.0 ** (em_db / 10.0) + 10.0 ** (dev_db / 10.0))
    return SweepResult(freqs=f, gain=np.sqrt(power), warnings=eqs_sweep.warnings)


_MECHANISM = {
    RegionLabel.EQS: 0,
    RegionLabel.EM_SMALL_MONOPOLE: 1,
    RegionLabel.EM_RESONANT: 1,
    RegionLabel.DEVICE_COUPLING: 2,
}
_LABELS = tuple(RegionLabel)  # EQS, EM small monopole, EM resonant, device


def classify_sweep(config: RegionConfig, eqs: SweepResult) -> list[RegionLabel]:
    """Region labels over an already-solved quasistatic sweep; no circuit solves.

    Each frequency takes the mechanism with the largest gain, the first one
    on a tie. The EM mechanism is reported as a small-monopole region below
    a quarter of the body resonance (wavelength still large against the
    body) and as the resonant region above it.
    """
    f = eqs.freqs
    winner = np.stack((eqs.gain_db(), body_em_pair_gain(config.em, f),
                       device_pair_gain(config.device, f))).argmax(axis=0)
    # into _LABELS: EQS 0, EM 1 (2 from a quarter of the body resonance up), device 3
    index = winner + (winner == 2) + ((winner == 1) & (f >= config.em.f_res / 4.0))
    return [_LABELS[i] for i in index.tolist()]


def classify_region(f: float, config: RegionConfig) -> RegionLabel:
    return classify_sweep(config, config.eqs_sweep(FrequencyGrid((f,))))[0]


def classify_grid(config: RegionConfig, grid: FrequencyGrid) -> list[RegionLabel]:
    return classify_sweep(config, config.eqs_sweep(grid))


def crossover_frequency(config: RegionConfig, region_a: RegionLabel,
                        region_b: RegionLabel,
                        f_lo: float = 1e5, f_hi: float = 1e9) -> float:
    """Smallest frequency where dominance flips between two mechanisms.

    The regions must map to adjacent mechanisms (quasistatic/EM-body or
    EM-body/device); only those two are evaluated. Located by scanning for
    the first sign change of the gain difference, then :func:`_bisect_root`.
    """
    _require_positive("f_lo", f_lo)
    _require_positive("f_hi", f_hi)
    if not f_lo < f_hi:
        raise ValueError(f"f_lo ({f_lo:g} Hz) must be below f_hi ({f_hi:g} Hz)")
    mech_a, mech_b = _MECHANISM[RegionLabel(region_a)], _MECHANISM[RegionLabel(region_b)]
    if mech_a == mech_b:
        raise CrossoverError(
            f"{region_a} and {region_b} share a mechanism; no gain crossover exists")
    if abs(mech_a - mech_b) != 1:
        raise CrossoverError(f"{region_a} and {region_b} are not adjacent mechanisms")

    def diff(f):
        return config._mechanism_db(mech_b, f) - config._mechanism_db(mech_a, f)

    scan = np.geomspace(f_lo, f_hi, 241)
    sign = np.sign(diff(scan))
    # scan points where the difference is zero or flips sign before the next one
    hits = np.flatnonzero((sign[:-1] == 0.0) | (sign[:-1] * sign[1:] < 0.0))
    if not hits.size:
        raise CrossoverError(
            f"{region_a} and {region_b} never exchange dominance in "
            f"[{f_lo:g}, {f_hi:g}] Hz")
    i = hits[0]
    if sign[i] == 0.0:
        return float(scan[i])
    return _bisect_root(diff, float(scan[i]), float(scan[i + 1]))


DETECTION_DISTANCE_CAP_M = 1e4


def max_detection_distance(config: RegionConfig, f: float, min_gain_db: float,
                           coupling: CouplingCapModel = DEFAULT_COUPLING_MODEL,
                           d_ref: float = 1.0) -> float:
    """Largest separation at which the coupled signal stays above min_gain_db.

    Distance scaling per mechanism: the quasistatic gain follows the
    coupling-capacitance model relative to the configured separation
    ``d_ref``; the radiative mechanisms fall 20 dB/decade of distance.
    Qualitative trend only (no quantitative anchor exists): low and flat
    in the quasistatic region, rising steeply once the bodies radiate,
    saturating at the cap of 1e4 m in the resonant/device regions.
    """
    _require_positive("frequency", f)
    return _detection_distance(config, f, config.eqs_gain_db(f), min_gain_db, coupling, d_ref)


def _detection_distance(config: RegionConfig, f, eqs_db, min_gain_db: float,
                        coupling: CouplingCapModel, d_ref: float = 1.0):
    """max_detection_distance at f, a float or an ndarray, given its solved quasistatic gain.

    An overflowing distance raises: FloatingPointError from an ndarray,
    OverflowError from a float.
    """
    _require_positive("d_ref", d_ref)
    _require_finite("min_gain_db", min_gain_db)
    most, least = (np.maximum, np.minimum) if isinstance(f, np.ndarray) else (max, min)
    radiative_db = most(body_em_pair_gain(config.em, f), device_pair_gain(config.device, f))
    with np.errstate(over="raise"):
        c_eqs = coupling.cap_at(d_ref) * 10.0 ** ((min_gain_db - eqs_db) / 20.0)
        d_radiative = d_ref * 10.0 ** ((radiative_db - min_gain_db) / 20.0)
    return least(most(coupling.distance_at(c_eqs), d_radiative), DETECTION_DISTANCE_CAP_M)


def calibrate_em_reference(config: RegionConfig, crossover_hz: float) -> float:
    """EM peak reference putting the quasistatic/EM handoff at crossover_hz."""
    return (config.eqs_gain_db(crossover_hz)
            - _resonant_shape_db(crossover_hz, config.em.f_res, config.em.q))


def calibrate_device_reference(em: EmBodyModel, device: DeviceModel,
                               handoff_hz: float) -> float:
    """Device peak reference putting the EM/device handoff at handoff_hz."""
    return (body_em_pair_gain(em, handoff_hz)
            - _resonant_shape_db(handoff_hz, device.f_res, DEVICE_Q))
