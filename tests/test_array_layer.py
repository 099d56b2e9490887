"""The array-native mechanism layer against its per-point scalar forms, and the
ITP crossover root against plain geometric bisection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqshbc import config, multiregion
from eqshbc.bodychannel import DEFAULT_COUPLING_MODEL, _bisect_root
from eqshbc.multiregion import (
    DEVICE_Q,
    RegionLabel,
    _detection_distance,
    _resonant_shape_db,
    body_em_pair_gain,
    classify_region,
    classify_sweep,
    crossover_frequency,
    default_region_config,
    device_pair_gain,
    friis_gain,
    max_detection_distance,
    total_response,
)
from eqshbc.solver import FrequencyGrid

BASE_CFG = config.load_config("inter_body.cfg")
NUMERIC_KEYS = sorted(key for key, value in BASE_CFG.items() if isinstance(value, float))


@st.composite
def region_configs(draw):
    """inter_body.cfg with each number scaled in [0.9, 1.1], in either environment.

    The coupling anchors' capacitances share one factor, so their fit stays
    a decreasing coupling model.
    """
    factor = st.floats(0.9, 1.1)
    cfg = {key: BASE_CFG[key] * draw(factor) for key in NUMERIC_KEYS}
    scale = draw(factor)
    cfg["coupling.anchors"] = [[d, c * scale] for d, c in BASE_CFG["coupling.anchors"]]
    cfg["load.kind"] = BASE_CFG["load.kind"]
    environment = draw(st.sampled_from(["open_air", "anechoic"]))
    return config.region_config_from_config(cfg, environment), cfg


@st.composite
def log_grids(draw, max_points=400):
    start = 10 ** draw(st.floats(5.0, 6.0))
    stop = 10 ** draw(st.floats(8.0, 9.0))
    return FrequencyGrid.log(start, stop, draw(st.integers(2, max_points)))


def reference_label(config_: multiregion.RegionConfig, f: float) -> RegionLabel:
    """The per-point scalar labelling: the largest of the three gains, first on a tie."""
    gains = config_.mechanism_gains_db(f)
    winner = max(range(3), key=gains.__getitem__)
    if winner == 0:
        return RegionLabel.EQS
    if winner == 2:
        return RegionLabel.DEVICE_COUPLING
    if f < config_.em.f_res / 4.0:
        return RegionLabel.EM_SMALL_MONOPOLE
    return RegionLabel.EM_RESONANT


class TestArrayGains:
    @settings(max_examples=40, deadline=None)
    @given(region_configs(), log_grids(), st.floats(0.1, 100.0))
    def test_array_gains_match_scalar_gains(self, drawn, grid, d):
        config_, _ = drawn
        f = np.asarray(grid.points)
        for model, q, gain in ((config_.em, config_.em.q, body_em_pair_gain),
                               (config_.device, DEVICE_Q, device_pair_gain)):
            shape = [_resonant_shape_db(x, model.f_res, q) for x in grid]
            np.testing.assert_array_max_ulp(_resonant_shape_db(f, model.f_res, q), shape, 4)
            # ref_db + shape cancels near 0 dB, where a relative ulp says
            # nothing, so the sum is held to 4 ulp of its larger term
            scalar = np.array([gain(model, x) for x in grid])
            bound = 4 * np.spacing(np.maximum(abs(model.ref_db), np.abs(shape)))
            assert np.all(np.abs(gain(model, f) - scalar) <= bound)
        np.testing.assert_array_max_ulp(friis_gain(d, f), [friis_gain(d, x) for x in grid], 4)

    def test_scalar_in_float_out(self):
        config_ = default_region_config()
        for f in (1e6, np.float64(1e6), 1_000_000):
            assert type(body_em_pair_gain(config_.em, f)) is float
            assert type(device_pair_gain(config_.device, f)) is float
            assert type(friis_gain(1.0, f)) is float
            assert type(max_detection_distance(config_, f, -95.0)) is float
        assert type(DEFAULT_COUPLING_MODEL.distance_at(1e-11)) is float

    def test_array_validated_in_one_pass(self):
        f = np.geomspace(1e5, 1e9, 50)
        for bad in (0.0, -1.0, math.nan, math.inf):
            g = f.copy()
            g[17] = bad
            with pytest.raises(ValueError, match="frequency must be finite and > 0"):
                body_em_pair_gain(default_region_config().em, g)
        with pytest.raises(ValueError, match="capacitance must be finite and >= 0"):
            DEFAULT_COUPLING_MODEL.distance_at(np.array([1e-11, -1e-12]))


class TestSweepAnalyses:
    @settings(max_examples=15, deadline=None)
    @given(region_configs(), log_grids(max_points=200))
    def test_classify_sweep_matches_per_point_labels(self, drawn, grid):
        config_, _ = drawn
        labels = classify_sweep(config_, config_.eqs_sweep(grid))
        assert labels == [classify_region(f, config_) for f in grid]
        assert labels == [reference_label(config_, f) for f in grid]

    @settings(max_examples=25, deadline=None)
    @given(region_configs(), log_grids(), st.floats(-110.0, -60.0))
    def test_total_response_and_detection_distances_match_per_point(self, drawn, grid, floor):
        config_, cfg = drawn
        eqs = config_.eqs_sweep(grid)
        total = total_response(eqs, config_.em, config_.device)
        per_point = [math.sqrt(abs(g) ** 2 + 10.0 ** (body_em_pair_gain(config_.em, f) / 10.0)
                               + 10.0 ** (device_pair_gain(config_.device, f) / 10.0))
                     for f, g in zip(grid, eqs.gain)]
        assert all(g.imag == 0.0 for g in total.gain)
        np.testing.assert_allclose(np.abs(total.gain), per_point, rtol=1e-12)

        coupling = config.coupling_model_from_config(cfg)
        distances = _detection_distance(config_, np.asarray(grid.points), eqs.gain_db(), floor,
                                        coupling)
        per_point = [max_detection_distance(config_, f, floor, coupling) for f in grid]
        np.testing.assert_allclose(distances, per_point, rtol=1e-12)


def geometric_bisection(fn, lo: float, hi: float) -> float:
    """Reference root: halve [lo, hi] at its geometric midpoint until no float is inside."""
    negative_lo = fn(lo) < 0.0
    assert negative_lo != (fn(hi) < 0.0)
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi)  # _bisect_root's midpoint, so the last float agrees
        if not lo < mid < hi:
            return mid
        if (fn(mid) < 0.0) == negative_lo:
            lo = mid
        else:
            hi = mid


def counted(fn):
    calls = []

    def wrapped(x):
        calls.append(x)
        return fn(x)

    return wrapped, calls


class TestCrossoverRoot:
    @settings(max_examples=25, deadline=None)
    @given(region_configs())
    def test_itp_matches_bisection_in_fewer_evaluations(self, drawn):
        config_, _ = drawn
        for a, b in ((RegionLabel.EQS, RegionLabel.EM_SMALL_MONOPOLE),
                     (RegionLabel.EM_RESONANT, RegionLabel.DEVICE_COUPLING)):
            brackets = []

            def spy(fn, lo, hi):
                brackets.append((fn, lo, hi))
                return _bisect_root(fn, lo, hi)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(multiregion, "_bisect_root", spy)
                root = crossover_frequency(config_, a, b)
            [(fn, lo, hi)] = brackets
            itp_fn, itp_calls = counted(fn)
            ref_fn, ref_calls = counted(fn)
            assert _bisect_root(itp_fn, lo, hi) == root
            assert root == pytest.approx(geometric_bisection(ref_fn, lo, hi), rel=1e-9)
            assert len(itp_calls) <= len(ref_calls)

    @pytest.mark.parametrize("fn, lo, hi", [
        (lambda x: x * x - 2.0, 1.0, 2.0),
        (lambda x: 3.0 - x, 1.0, 10.0),
        (lambda x: x ** 20 - 2.0, 1.0, 2.0),
        (lambda x: math.log(x) - 5.0, 1e-300, 1e300),
    ])
    def test_smooth_functions_need_few_evaluations(self, fn, lo, hi):
        itp_fn, itp_calls = counted(fn)
        ref_fn, ref_calls = counted(fn)
        assert _bisect_root(itp_fn, lo, hi) == geometric_bisection(ref_fn, lo, hi)
        assert len(itp_calls) <= len(ref_calls) // 3

    def test_step_function_falls_back_to_bisection(self):
        def step(x):
            return -1.0 if x < 1.2345 else 1.0

        itp_fn, itp_calls = counted(step)
        ref_fn, ref_calls = counted(step)
        assert _bisect_root(itp_fn, 1.0, 2.0) == geometric_bisection(ref_fn, 1.0, 2.0)
        assert len(itp_calls) <= len(ref_calls)
