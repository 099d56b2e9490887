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
call; ``RegionConfig.mechanism_gains_db`` takes a float. Everything over a
frequency grid is array arithmetic over one solved quasistatic sweep and
its mechanism table: the (3, n) gains in dB of the quasistatic, EM-body and
device mechanisms, built on first use and kept on the sweep, so the
stitched response, the region labels and the detection distances evaluate
each closed-form gain once. The crossover scan's 241 points are built once
per band (the last eight bands are kept), and a config keeps their EM and
device gains for the last band asked for, which both crossovers of that band
read. The scan's chunks and the root search's steps take the quasistatic gain
from the solver's one probe read, ``solver._probe_gain`` of the config's
circuit, kept on the config. A crossover is the root of the upper
mechanism's gain over the lower one's, the same float whichever order its
two labels come in.
"""

from __future__ import annotations

import enum
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from . import config as cfgmod
from .bodychannel import (
    INTER_PROBE,
    SOURCE_LABEL,
    Environment,
    InterBodyParams,
    _bisect_root,
    build_inter_body,
)
from .coupling import DEFAULT_COUPLING_MODEL, CouplingCapModel
from .netlist import (Netlist, ParameterError, _require_finite, _require_non_negative,
                      _require_positive)
from .solver import FrequencyGrid, SweepResult, _probe_gain, _require_each, transfer

__all__ = [
    "DEVICE_Q",
    "DeviceModel",
    "EmBodyModel",
    "CrossoverError",
    "RegionConfig",
    "RegionLabel",
    "body_em_pair_gain",
    "classify_sweep",
    "crossover_frequency",
    "default_region_config",
    "device_pair_gain",
    "max_detection_distance",
    "total_response",
]

_SPEED_OF_LIGHT = 299_792_458.0

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


def _require_ref_db(name: str, ref_db: float) -> None:
    """A peak reference gain is finite, or -inf to disable its mechanism."""
    if ref_db != -math.inf:
        _require_finite(name, ref_db)


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
        _require_ref_db("em ref_db", self.ref_db)

    @cached_property
    def f_res(self) -> float:
        return _SPEED_OF_LIGHT / (4.0 * self.height)


@dataclass(frozen=True)
class DeviceModel:
    """Electrode-as-monopole pair response, quarter-wave resonance."""

    electrode_length: float = 0.05
    ref_db: float = DEVICE_REF_OPEN_AIR_DB

    def __post_init__(self):
        _require_positive("electrode_length", self.electrode_length)
        _require_ref_db("device ref_db", self.ref_db)

    @cached_property
    def f_res(self) -> float:
        return _SPEED_OF_LIGHT / (4.0 * self.electrode_length)


# The parameters that set each mechanism's f_res and q
_EM_SHAPE = ("height", "q")
_DEVICE_SHAPE = ("electrode_length",)


def _resonant_shape_db(f, f_res: float, q: float, names: tuple[str, ...]):
    """Peak-normalized resonant pair response in dB (0 dB at f_res); validates f.

    A response outside the float range, from an extreme but finite f, f_res
    or q, raises ParameterError naming ``names``, the parameters that set
    f_res and q, instead of turning into inf or NaN.
    """
    if isinstance(f, np.ndarray):
        _require_each(_require_positive, "frequency", f)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return _shape_db(np.log10, f / f_res, q)
        except FloatingPointError:
            pass
    else:
        _require_positive("frequency", f)
        try:
            shape = _shape_db(math.log10, f / f_res, q)
        except (ZeroDivisionError, ValueError):  # q * q == 0.0, or log10(0.0)
            shape = math.nan
        if math.isfinite(shape):
            return shape
    raise ParameterError(f"resonant response with f_res = {f_res:g} Hz and q = {q:g} is out of "
                         f"the float range in this band; change {' or '.join(['{}'] * len(names))}"
                         ", or the band", *names)


def _shape_db(log10, u, q):
    # squares as products, as numpy evaluates ** 2: both paths round alike up to the log
    u2, v = u * u, u / q
    return 20.0 * log10(u2 / ((1.0 - u2) * (1.0 - u2) + v * v) / (q * q))


def body_em_pair_gain(model: EmBodyModel, f):
    """Pair gain in dB of two body-monopoles; 40 dB/decade below resonance."""
    return model.ref_db + _resonant_shape_db(f, model.f_res, model.q, _EM_SHAPE)


def device_pair_gain(model: DeviceModel, f):
    """Pair gain in dB of the two device electrodes; peaks at c/(4*l_e)."""
    return model.ref_db + _resonant_shape_db(f, model.f_res, DEVICE_Q, _DEVICE_SHAPE)


@dataclass(frozen=True)
class RegionConfig:
    """Calibrated three-mechanism configuration for region analysis."""

    channel: InterBodyParams
    em: EmBodyModel
    device: DeviceModel
    _netlist: Netlist = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_netlist", build_inter_body(self.channel))

    @cached_property
    def _eqs_gain_db(self):
        """The quasistatic gain in dB at an unchecked float or scan chunk
        (``solver._probe_gain``)."""
        return _probe_gain(self._netlist, INTER_PROBE)

    def eqs_gain_db(self, f: float) -> float:
        _require_positive("frequency", f)
        return self._eqs_gain_db(f)

    def eqs_sweep(self, grid: FrequencyGrid) -> SweepResult:
        return transfer(self._netlist, SOURCE_LABEL, INTER_PROBE, grid)

    def mechanism_gains_db(self, f: float) -> tuple[float, float, float]:
        """(quasistatic, EM body pair, device electrodes) gains in dB at a float f."""
        return self.eqs_gain_db(f), body_em_pair_gain(self.em, f), device_pair_gain(self.device, f)

    def _crossover_scan(self, f_lo: float, f_hi: float) -> tuple[np.ndarray, np.ndarray]:
        """The crossover scan of [f_lo, f_hi]: its 241 points, from ``_scan_points``, and
        their (2, 241) EM body pair and device gains in dB.

        The gains are built on first use and kept on the config for the last
        band asked for, as a netlist keeps its MNA stamp.
        """
        scan = _scan_points(f_lo, f_hi)
        kept = getattr(self, "_scan", None)
        if kept is None or kept[0] != (f_lo, f_hi):
            db = np.stack((body_em_pair_gain(self.em, scan), device_pair_gain(self.device, scan)))
            db.flags.writeable = False
            kept = ((f_lo, f_hi), db)
            # the config is frozen; the gains are derived from its fields and never compared
            object.__setattr__(self, "_scan", kept)
        return scan, kept[1]


def default_region_config(environment: Environment | str = Environment.OPEN_AIR) -> RegionConfig:
    """The pinned default scenario, as defined by the bundled inter_body.cfg.

    Two subjects 1 m apart with a capacitive load; ``environment`` replaces
    the file's own.
    """
    cfg = cfgmod._read_config(cfgmod._bundled_path("inter_body.cfg"))
    return cfgmod.region_config_from_config(cfg, environment)


def _mechanism_table(eqs: SweepResult, em: EmBodyModel, device: DeviceModel) -> np.ndarray:
    """The sweep's (3, n) gains in dB: quasistatic, EM body pair, device electrodes.

    Built on first use and kept on the sweep for the last pair of models
    asked for, as a netlist keeps its MNA stamp, so each closed-form gain is
    evaluated once per solved sweep.
    """
    kept = getattr(eqs, "_table", None)
    if kept is None or kept[0] is not em or kept[1] is not device:
        f = eqs.freqs
        table = np.stack((eqs.gain_db(), body_em_pair_gain(em, f), device_pair_gain(device, f)))
        table.flags.writeable = False
        kept = (em, device, table)
        # the sweep is frozen; the table is derived from it and the models it holds
        object.__setattr__(eqs, "_table", kept)
    return kept[2]


def total_response(eqs_sweep: SweepResult, em: EmBodyModel, device: DeviceModel) -> SweepResult:
    """Incoherent (power-sum) combination of the three mechanisms.

    The result is magnitude-only; it dominates every individual mechanism
    at every frequency and degenerates to the quasistatic sweep when both
    EM references are -inf. It is taken at the sweep's own frequencies. A
    power sum out of the float range, or of 0 (-inf dB), raises ValueError;
    one that an extreme reference gain takes out of range names that gain.
    """
    _, em_db, dev_db = _mechanism_table(eqs_sweep, em, device)
    try:
        with np.errstate(over="raise"):
            power = np.abs(eqs_sweep.gain) ** 2 + (10.0 ** (em_db / 10.0) + 10.0 ** (dev_db / 10.0))
    except FloatingPointError:  # an extreme gain: name it
        refs = {"em ref_db": em_db, "device ref_db": dev_db}
        with np.errstate(over="ignore"):  # the gain whose own power overflows; both if neither does
            if np.isinf(np.abs(eqs_sweep.gain) ** 2).any():
                raise ValueError("the quasistatic gain's power is out of the float range") from None
            named = [n for n, db in refs.items() if np.isinf(10.0 ** (db / 10.0)).any()] or refs
        raise ParameterError("summed mechanism power is out of the float range; lower "
                             + " or ".join(["{}"] * len(named)), *named) from None
    if not power.all():  # every mechanism's power rounds to 0: no gain in dB
        raise ValueError(f"summed mechanism power is 0 at f={eqs_sweep.freqs[power == 0.0][0]:g} Hz")
    return SweepResult(freqs=eqs_sweep.freqs, gain=np.sqrt(power), warnings=eqs_sweep.warnings)


_LABELS = tuple(RegionLabel)  # EQS, EM small monopole, EM resonant, device
_LABEL_TEXTS = tuple(label.value for label in _LABELS)  # as the CLI writes them
# each label's mechanism table row: EQS 0, either EM region 1, device 2
_MECHANISM = (0, 1, 1, 2)


def _region_index(config: RegionConfig, eqs: SweepResult) -> np.ndarray:
    """Each frequency's index into _LABELS, from the sweep's mechanism table."""
    winner = _mechanism_table(eqs, config.em, config.device).argmax(axis=0)
    # mechanism 0, 1, 2 to EQS 0, EM 1 (2 from a quarter of the body resonance up), device 3
    return winner + (winner == 2) + ((winner == 1) & (eqs.freqs >= config.em.f_res / 4.0))


def classify_sweep(config: RegionConfig, eqs: SweepResult) -> list[RegionLabel]:
    """Region labels over an already-solved quasistatic sweep; no circuit solves.

    Each frequency takes the mechanism with the largest gain, the first one
    on a tie. The EM mechanism is reported as a small-monopole region below
    a quarter of the body resonance (wavelength still large against the
    body) and as the resonant region above it.
    """
    return [_LABELS[i] for i in _region_index(config, eqs).tolist()]


# The crossover scan: 241 log-spaced points over [f_lo, f_hi], evaluated 80
# intervals (a third of the band) at a time. On the default band the pinned
# 1 MHz and 10 MHz handoffs sit at intervals 60 and 120, inside the first
# and second chunks rather than on a chunk edge.
_SCAN_POINTS = 241
_SCAN_CHUNK = 80


@lru_cache(maxsize=8)
def _scan_points(f_lo: float, f_hi: float) -> np.ndarray:
    """The read-only 241 log-spaced scan points of [f_lo, f_hi], built once per band.

    A band too narrow for 241 strictly increasing floats raises ValueError.
    """
    scan = np.geomspace(f_lo, f_hi, _SCAN_POINTS)
    if not (scan[1:] > scan[:-1]).all():
        raise ValueError(f"the band from f_lo = {float(f_lo)!r} Hz to f_hi = {float(f_hi)!r} Hz "
                         f"is too narrow for {_SCAN_POINTS} strictly increasing scan points")
    scan.flags.writeable = False
    return scan


def crossover_frequency(config: RegionConfig, region_a: RegionLabel,
                        region_b: RegionLabel,
                        f_lo: float = 1e5, f_hi: float = 1e9) -> float:
    """Smallest frequency where dominance flips between two mechanisms.

    The regions must map to adjacent mechanisms (quasistatic/EM-body or
    EM-body/device); only those two are evaluated. Located by scanning 241
    log-spaced points for the first sign change of the upper mechanism's
    gain over the lower one's, then :func:`_bisect_root`, so the crossover
    is the same float whichever order the two labels come in. The scan
    points are kept per band, and a band too narrow for 241 strictly
    increasing points raises ValueError before any solve. Where the
    quasistatic mechanism takes part, the scan runs upward in chunks of 81
    points that share their end points and stops at the first chunk holding
    a zero or a sign change, so the circuit is not solved above the
    crossover; the bracket, and so the root, is that of the whole scan.
    The chunks and the root-search steps take the quasistatic gain from
    ``solver._probe_gain`` of the config's circuit (``RegionConfig._eqs_gain_db``),
    the chunks bit for bit as ``eqs_sweep`` would give it. A ``CrossoverError``
    names the labels as the CLI writes them, and the band by the repr of its
    ends as Python floats.
    """
    _require_positive("f_lo", f_lo)
    _require_positive("f_hi", f_hi)
    if not f_lo < f_hi:
        raise ValueError(f"f_lo ({f_lo:g} Hz) must be below f_hi ({f_hi:g} Hz)")
    labels = [RegionLabel(r) for r in (region_a, region_b)]
    mech_a, mech_b = (_MECHANISM[_LABELS.index(label)] for label in labels)
    pair = " and ".join(label.value for label in labels)  # the labels as the CLI writes them
    if mech_a == mech_b:
        raise CrossoverError(f"{pair} share a mechanism; no gain crossover exists")
    if abs(mech_a - mech_b) != 1:
        raise CrossoverError(f"{pair} are not adjacent mechanisms")

    lower, upper = sorted((mech_a, mech_b))
    scan, radiative_db = config._crossover_scan(f_lo, f_hi)
    gains = (config._eqs_gain_db, partial(body_em_pair_gain, config.em),
             partial(device_pair_gain, config.device))
    # Only the quasistatic gain costs circuit solves; the EM pair is scanned in one chunk.
    step = _SCAN_POINTS - 1 if lower else _SCAN_CHUNK
    # ascending chunks sharing their end points, so every neighbouring pair is in a chunk
    for start in range(0, _SCAN_POINTS - 1, step):
        stop = start + step + 1
        chunk = scan[start:stop]
        lower_db = radiative_db[0, start:stop] if lower else config._eqs_gain_db(chunk)
        sign = np.sign(radiative_db[upper - 1, start:stop] - lower_db)
        # chunk points where the difference is zero or flips sign before the next one
        hits = np.flatnonzero((sign[:-1] == 0.0) | (sign[:-1] * sign[1:] < 0.0))
        if hits.size:
            i = hits[0]
            if sign[i] == 0.0:
                return float(chunk[i])
            lo, hi = chunk[i:i + 2].tolist()
            # The quasistatic gains at the bracket ends are the chunk's, as a sweep is its
            # one-point solves bit for bit; every other gain goes through math.
            solved = {} if lower else dict(zip((lo, hi), lower_db[i:i + 2].tolist()))
            return _bisect_root(
                lambda f: gains[upper](f) - (solved[f] if f in solved else gains[lower](f)),
                lo, hi)
    raise CrossoverError(
        f"{pair} never exchange dominance in [{float(f_lo)!r}, {float(f_hi)!r}] Hz")


DETECTION_DISTANCE_CAP_M = 1e4


def max_detection_distance(config: RegionConfig, f: float, min_gain_db: float,
                           coupling: CouplingCapModel = DEFAULT_COUPLING_MODEL) -> float:
    """Largest separation at which the coupled signal stays above min_gain_db.

    Distance scaling per mechanism, from the gains at a separation of 1 m:
    the quasistatic gain follows the coupling-capacitance model; the
    radiative mechanisms fall 20 dB/decade of distance.
    Qualitative trend only (no quantitative anchor exists): low and flat
    in the quasistatic region, rising steeply once the bodies radiate,
    saturating at the cap of 1e4 m in the resonant/device regions.
    """
    return _detection_distance(config.mechanism_gains_db(f), min_gain_db, coupling)


def _detection_distance(gains_db, min_gain_db: float, coupling: CouplingCapModel):
    """max_detection_distance from the gains in dB at a separation of 1 m.

    ``gains_db`` is the (quasistatic, EM body pair, device) triple of
    floats from ``mechanism_gains_db``, or a sweep's (3, n) mechanism
    table. A gain floor so far from a mechanism's gain that its coupling
    capacitance or distance overflows, and a quasistatic gain of -inf dB,
    which would need an infinite coupling capacitance, raise ValueError
    naming the gain floor and the mechanism.
    """
    _require_finite("min_gain_db", min_gain_db)
    min_gain_db = float(min_gain_db)  # a numpy scalar would keep float gains in numpy
    eqs_db, em_db, dev_db = gains_db
    array = isinstance(eqs_db, np.ndarray)
    most, least = (np.maximum, np.minimum) if array else (max, min)
    radiative_db = most(em_db, dev_db)
    # np.errstate does not reach Python floats, whose ** raises OverflowError by itself
    with np.errstate(over="raise") if array else nullcontext():
        try:
            c_eqs = coupling.cap_at(1.0) * 10.0 ** ((min_gain_db - eqs_db) / 20.0)
        except (OverflowError, FloatingPointError):
            raise _far_floor(min_gain_db, "quasistatic") from None
        try:
            d_radiative = 10.0 ** ((radiative_db - min_gain_db) / 20.0)
        except (OverflowError, FloatingPointError):
            # the mechanism of the highest radiative gain, which overflows first
            mechanism = "EM body pair" if np.max(em_db) >= np.max(dev_db) else "device"
            raise _far_floor(min_gain_db, mechanism) from None
    try:
        if array:
            _require_each(_require_non_negative, "capacitance", c_eqs)
        else:
            d_eqs = coupling.distance_at(c_eqs)
    except ValueError:  # c_eqs is inf: a quasistatic gain of -inf dB, or a NaN one
        db = float(eqs_db[~(c_eqs < math.inf)][0]) if array else eqs_db
        raise ValueError(f"the quasistatic gain of {db:g} dB at 1 m reaches the gain floor of "
                         f"{min_gain_db:g} dB at no finite coupling capacitance") from None
    if array:  # coupling.distance_at, elementwise by the same expression
        d = np.divide(coupling.a, c_eqs - coupling.b, out=np.full(c_eqs.shape, math.inf),
                      where=c_eqs > coupling.b)
        d_eqs = np.where(c_eqs < coupling.cap_at(0.0), d - coupling.d0, 0.0)
    return least(most(d_eqs, d_radiative), DETECTION_DISTANCE_CAP_M)


def _far_floor(min_gain_db: float, mechanism: str) -> ValueError:
    return ValueError(f"the gain floor of {min_gain_db:g} dB (min_gain_db, --sensitivity-db) lies "
                      f"too far from the {mechanism} gain at 1 m: the detection distance overflows")


def calibrate_em_reference(config: RegionConfig, crossover_hz: float) -> float:
    """EM peak reference putting the quasistatic/EM handoff at crossover_hz."""
    return (config.eqs_gain_db(crossover_hz)
            - _resonant_shape_db(crossover_hz, config.em.f_res, config.em.q, _EM_SHAPE))


def calibrate_device_reference(em: EmBodyModel, device: DeviceModel,
                               handoff_hz: float) -> float:
    """Device peak reference putting the EM/device handoff at handoff_hz."""
    return (body_em_pair_gain(em, handoff_hz)
            - _resonant_shape_db(handoff_hz, device.f_res, DEVICE_Q, _DEVICE_SHAPE))
