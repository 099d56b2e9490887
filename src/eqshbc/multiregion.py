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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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
from .netlist import Netlist, _require_finite, _require_positive
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

    @property
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

    @property
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


def _resonant_shape_db(f: float, f_res: float, q: float) -> float:
    """Peak-normalized resonant pair response in dB (0 dB at f_res)."""
    u = f / f_res
    p = u * u / ((1.0 - u * u) ** 2 + (u / q) ** 2)
    return 20.0 * math.log10(p / (q * q))


def body_em_pair_gain(model: EmBodyModel, f: float) -> float:
    """Pair gain in dB of two body-monopoles; 40 dB/decade below resonance."""
    _require_positive("frequency", f)
    return model.ref_db + _resonant_shape_db(f, model.f_res, model.q)


def device_pair_gain(model: DeviceModel, f: float) -> float:
    """Pair gain in dB of the two device electrodes; peaks at c/(4*l_e)."""
    _require_positive("frequency", f)
    return model.ref_db + _resonant_shape_db(f, model.f_res, DEVICE_Q)


def friis_gain(d: float, f: float) -> float:
    """Free-space path gain 20*log10(lambda/d), zero-referenced at d = lambda.

    Relative-comparison form: the antenna-gain constant is taken as 0 dB.
    """
    _require_positive("distance", d)
    _require_positive("frequency", f)
    return 20.0 * math.log10(SPEED_OF_LIGHT / (f * d))


@dataclass(frozen=True)
class RegionConfig:
    """Calibrated three-mechanism configuration for region analysis."""

    channel: InterBodyParams
    em: EmBodyModel
    device: DeviceModel
    _netlist: Netlist = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "_netlist", build_inter_body(self.channel))

    def eqs_gain_db(self, f: float) -> float:
        return _probe_gain_db(self._netlist, INTER_PROBE, f)

    def eqs_sweep(self, grid: FrequencyGrid) -> SweepResult:
        return transfer(self._netlist, SOURCE_LABEL, INTER_PROBE, grid)

    def mechanism_gains_db(self, f: float) -> tuple[float, float, float]:
        return tuple(gain(self, f) for gain in _MECHANISM_GAINS)


# (config, f) -> gain in dB: quasistatic circuit, EM body pair, device electrodes.
_MECHANISM_GAINS = (
    RegionConfig.eqs_gain_db,
    lambda config, f: body_em_pair_gain(config.em, f),
    lambda config, f: device_pair_gain(config.device, f),
)


def _mechanism_sweep_db(config: RegionConfig, mechanism: int, freqs) -> list[float]:
    """A mechanism's gain in dB over freqs; the quasistatic one as one batched sweep."""
    if mechanism == 0:
        return config.eqs_sweep(FrequencyGrid(freqs)).gain_db().tolist()
    gain = _MECHANISM_GAINS[mechanism]
    return [gain(config, f) for f in freqs]


def default_region_config(environment: Environment | str = Environment.OPEN_AIR) -> RegionConfig:
    """The pinned default scenario, as defined by the bundled inter_body.cfg.

    Two subjects 1 m apart with a capacitive load; ``environment`` replaces
    the file's own.
    """
    from . import config  # config builds on this module, so import it late

    cfg = config._read_config(config._bundled_path("inter_body.cfg"))
    return config.region_config_from_config(cfg, environment)


def total_response(eqs_sweep: SweepResult, em: EmBodyModel, device: DeviceModel,
                   grid: FrequencyGrid) -> SweepResult:
    """Incoherent (power-sum) combination of the three mechanisms.

    The result is magnitude-only; it dominates every individual mechanism
    at every frequency and degenerates to the quasistatic sweep when both
    EM references are -inf.
    """
    if tuple(grid) != eqs_sweep.freqs:
        raise ValueError("grid does not match the quasistatic sweep")
    mags = []
    for f, g in zip(eqs_sweep.freqs, eqs_sweep.gain):
        p = abs(g) ** 2
        em_db = body_em_pair_gain(em, f)
        dev_db = device_pair_gain(device, f)
        p += 10.0 ** (em_db / 10.0) + 10.0 ** (dev_db / 10.0)
        mags.append(complex(math.sqrt(p)))
    return SweepResult(freqs=eqs_sweep.freqs, gain=tuple(mags),
                       source_label=eqs_sweep.source_label, probe=eqs_sweep.probe,
                       warnings=eqs_sweep.warnings)


_MECHANISM = {
    RegionLabel.EQS: 0,
    RegionLabel.EM_SMALL_MONOPOLE: 1,
    RegionLabel.EM_RESONANT: 1,
    RegionLabel.DEVICE_COUPLING: 2,
}


def _label(config: RegionConfig, f: float, eqs_db: float) -> RegionLabel:
    """Label of the mechanism contributing the largest gain at f.

    The EM mechanism is reported as a small-monopole region below a
    quarter of the body resonance (wavelength still large against the
    body) and as the resonant region above it.
    """
    gains = (eqs_db, body_em_pair_gain(config.em, f), device_pair_gain(config.device, f))
    winner = max(range(3), key=gains.__getitem__)
    if winner == 0:
        return RegionLabel.EQS
    if winner == 2:
        return RegionLabel.DEVICE_COUPLING
    if f < config.em.f_res / 4.0:
        return RegionLabel.EM_SMALL_MONOPOLE
    return RegionLabel.EM_RESONANT


def classify_region(f: float, config: RegionConfig) -> RegionLabel:
    return _label(config, f, config.eqs_gain_db(f))


def classify_sweep(config: RegionConfig, eqs: SweepResult) -> list[RegionLabel]:
    """Region labels over an already-solved quasistatic sweep; no circuit solves."""
    return [_label(config, f, g) for f, g in zip(eqs.freqs, eqs.gain_db())]


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

    gain_a, gain_b = _MECHANISM_GAINS[mech_a], _MECHANISM_GAINS[mech_b]

    def diff(f: float) -> float:
        return gain_b(config, f) - gain_a(config, f)

    scan = np.geomspace(f_lo, f_hi, 241).tolist()
    values = [b - a for a, b in zip(_mechanism_sweep_db(config, mech_a, scan),
                                    _mechanism_sweep_db(config, mech_b, scan))]
    for i in range(len(scan) - 1):
        if values[i] == 0.0:
            return scan[i]
        if values[i] < 0.0 < values[i + 1] or values[i] > 0.0 > values[i + 1]:
            return _bisect_root(diff, scan[i], scan[i + 1])
    raise CrossoverError(
        f"{region_a} and {region_b} never exchange dominance in "
        f"[{f_lo:g}, {f_hi:g}] Hz")


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
    _require_positive("d_ref", d_ref)
    _require_finite("min_gain_db", min_gain_db)
    return _detection_distance(config, f, config.eqs_gain_db(f), min_gain_db, coupling, d_ref)


def _detection_distance(config: RegionConfig, f: float, eqs_db: float, min_gain_db: float,
                        coupling: CouplingCapModel, d_ref: float = 1.0) -> float:
    """max_detection_distance given the quasistatic gain eqs_db already solved at f."""
    d_eqs = coupling.distance_at(coupling.cap_at(d_ref) * 10.0 ** ((min_gain_db - eqs_db) / 20.0))

    def radiative(gain_db: float) -> float:
        if gain_db == -math.inf:
            return 0.0
        return d_ref * 10.0 ** ((gain_db - min_gain_db) / 20.0)

    em_db, dev_db = body_em_pair_gain(config.em, f), device_pair_gain(config.device, f)
    return min(max(d_eqs, radiative(em_db), radiative(dev_db)), DETECTION_DISTANCE_CAP_M)


def calibrate_em_reference(config: RegionConfig, crossover_hz: float) -> float:
    """EM peak reference putting the quasistatic/EM handoff at crossover_hz."""
    return (config.eqs_gain_db(crossover_hz)
            - _resonant_shape_db(crossover_hz, config.em.f_res, config.em.q))


def calibrate_device_reference(em: EmBodyModel, device: DeviceModel,
                               handoff_hz: float) -> float:
    """Device peak reference putting the EM/device handoff at handoff_hz."""
    return (body_em_pair_gain(em, handoff_hz)
            - _resonant_shape_db(handoff_hz, device.f_res, DEVICE_Q))
