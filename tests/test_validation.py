"""Non-finite numbers are rejected by every model constructor and analysis function."""

import math

import numpy as np
import pytest

from eqshbc.bodychannel import BodyChannelParams, extra_loss_db, scale_return_path
from eqshbc.coupling import (
    DEFAULT_COUPLING_MODEL,
    CouplingCapModel,
    coupling_coefficient,
    fit_coupling_model,
)
from eqshbc.fcc import DEFAULT_FIELD_MODEL, FccLimitRow, FieldDecayModel, field_at
from eqshbc.multiregion import (
    DeviceModel,
    EmBodyModel,
    RegionLabel,
    body_em_pair_gain,
    crossover_frequency,
    default_region_config,
    device_pair_gain,
    max_detection_distance,
)
from eqshbc.netlist import Element, parse_netlist
from eqshbc.solver import solve_ac

NAN, INF = math.nan, math.inf

# Each case puts the value under test into one argument of a valid call.
CASES = {
    "EmBodyModel.height": lambda v: EmBodyModel(height=v),
    "EmBodyModel.q": lambda v: EmBodyModel(q=v),
    "DeviceModel.electrode_length": lambda v: DeviceModel(electrode_length=v),
    "FieldDecayModel.anchor_field": lambda v: FieldDecayModel(anchor_field=v),
    "FieldDecayModel.anchor_distance": lambda v: FieldDecayModel(0.0648, anchor_distance=v),
    "FieldDecayModel.exponent": lambda v: FieldDecayModel(0.0648, exponent=v),
    "FccLimitRow.f_low_hz": lambda v: FccLimitRow(v, 1e6, "100", 3.0),
    "FccLimitRow.distance_m": lambda v: FccLimitRow(9e3, 1e6, "100", v),
    "FccLimitRow.limit_spec": lambda v: FccLimitRow(9e3, 1e6, str(v), 3.0),
    "CouplingCapModel.a": lambda v: CouplingCapModel(a=v, d0=0.2, b=2e-12),
    "CouplingCapModel.d0": lambda v: CouplingCapModel(a=20e-12, d0=v, b=2e-12),
    "CouplingCapModel.b": lambda v: CouplingCapModel(a=20e-12, d0=0.2, b=v),
    "CouplingCapModel.distance_at": lambda v: DEFAULT_COUPLING_MODEL.distance_at(v),
    "fit_coupling_model.distance": lambda v: fit_coupling_model([(v, 21e-12), (5.0, 6.6e-12)]),
    "fit_coupling_model.capacitance": lambda v: fit_coupling_model([(1.0, v), (5.0, 6.6e-12)]),
    "fit_coupling_model.d0": lambda v: fit_coupling_model([(1.0, 21e-12), (5.0, 6.6e-12)], v),
    "coupling_coefficient.d": lambda v: coupling_coefficient(DEFAULT_COUPLING_MODEL, v),
    "coupling_coefficient.c_body": lambda v: coupling_coefficient(DEFAULT_COUPLING_MODEL, 1.0, v),
    "extra_loss_db.c_c": lambda v: extra_loss_db(v, 150e-12),
    "extra_loss_db.c_body": lambda v: extra_loss_db(21e-12, v),
    "scale_return_path": lambda v: scale_return_path(BodyChannelParams(), v),
    "body_em_pair_gain": lambda v: body_em_pair_gain(EmBodyModel(), v),
    "device_pair_gain": lambda v: device_pair_gain(DeviceModel(), v),
    "field_at": lambda v: field_at(DEFAULT_FIELD_MODEL, v),
    "crossover_frequency.f_lo": lambda v: crossover_frequency(
        default_region_config(), RegionLabel.EQS, RegionLabel.EM_SMALL_MONOPOLE, f_lo=v),
    "crossover_frequency.f_hi": lambda v: crossover_frequency(
        default_region_config(), RegionLabel.EQS, RegionLabel.EM_SMALL_MONOPOLE, f_hi=v),
    "max_detection_distance.f": lambda v: max_detection_distance(
        default_region_config(), v, -95.0),
    "max_detection_distance.min_gain_db": lambda v: max_detection_distance(
        default_region_config(), 5e5, v),
}


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_non_finite_rejected(case, value):
    with pytest.raises(ValueError, match="must be finite"):
        CASES[case](value)


@pytest.mark.parametrize("model", [EmBodyModel, DeviceModel])
def test_ref_db_minus_inf_disables_the_mechanism(model):
    assert model(ref_db=-INF).ref_db == -INF
    for value in (NAN, INF):
        with pytest.raises(ValueError, match="ref_db must be finite"):
            model(ref_db=value)


def test_open_ended_fcc_row():
    assert FccLimitRow(960e6, INF, "500", 3.0).f_high_hz == INF
    for f_high in (NAN, -INF):
        with pytest.raises(ValueError, match="f_low < f_high"):
            FccLimitRow(960e6, f_high, "500", 3.0)


@pytest.mark.parametrize("f_lo, f_hi", [(1e9, 1e5), (1e6, 1e6)])
def test_crossover_bounds_must_be_ordered(f_lo, f_hi):
    # An inverted bracket would reach _bisect_root, which returns it unrefined.
    with pytest.raises(ValueError, match="must be below f_hi"):
        crossover_frequency(default_region_config(), RegionLabel.EM_RESONANT,
                            RegionLabel.DEVICE_COUPLING, f_lo=f_lo, f_hi=f_hi)


@pytest.mark.parametrize("call", [
    lambda v: max_detection_distance(default_region_config(), v, -95.0),
    lambda v: default_region_config().mechanism_gains_db(v),
    lambda v: Element("R", v, (1, 2), "R1"),
    lambda v: solve_ac(parse_netlist("V1 1 0 1\nR1 1 2 1k\nC1 2 0 1n"), v),
], ids=["max_detection_distance", "mechanism_gains_db", "Element", "solve_ac"])
def test_scalar_entry_points_take_one_real_number(call):
    # A one-element ndarray's truth value is its element's, so a range check alone passes it.
    for value in (np.array([1e5]), np.array(1e5), 1e5 + 0j):
        with pytest.raises(TypeError, match=r"must be a real number, got (ndarray|complex)$"):
            call(value)
    # numpy scalars pass, as FrequencyGrid's extremes reach the checks
    assert call(np.float64(1e5)) == call(1e5)
