import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqshbc import bodychannel, config, coupling, multiregion, risk, solver
from eqshbc.bodychannel import (
    ANECHOIC_RETURN_BOOST,
    INTER_PROBE,
    INTRA_PROBE,
    BodyChannelParams,
    Environment,
    InterBodyParams,
    LoadSpec,
    _bisect_root,
    build_inter_body,
    build_intra_body,
    calibrate_anechoic_boost,
    calibrate_return_scale,
    extra_loss_db,
    inter_body_gain_db,
    intra_body_gain_db,
    intra_body_sweep,
    scale_return_path,
)
from eqshbc.coupling import (
    DEFAULT_COUPLING_MODEL,
    CouplingCapModel,
    coupling_coefficient,
    default_coupling_model,
    fit_coupling_model,
)
from eqshbc.netlist import format_netlist, parse_netlist
from eqshbc.solver import FrequencyGrid, SingularCircuitError, solve_ac, transfer

EQS_BAND = FrequencyGrid.log(1e5, 1e6, 21)


def db(x: float) -> float:
    return 20.0 * math.log10(abs(x))


class TestIntraBody:
    def test_netlist_structure(self):
        net = build_intra_body(BodyChannelParams())
        labels = {e.label for e in net.elements}
        assert labels == {"VTX", "RS", "CGTX", "CBODY", "RB", "CL", "CGRX"}
        assert set(INTRA_PROBE) <= net.nodes()

    def test_capacitive_load_flat_band(self):
        sweep = intra_body_sweep(BodyChannelParams(), EQS_BAND)
        gains = sweep.gain_db()
        assert gains.max() - gains.min() < 0.5

    def test_resistive_load_rising_20db_per_decade(self):
        params = BodyChannelParams(load=LoadSpec.resistive(50.0))
        sweep = intra_body_sweep(params, EQS_BAND)
        slope = np.polyfit(np.log10(sweep.freqs), sweep.gain_db(), 1)[0]
        assert slope == pytest.approx(20.0, abs=1.0)

    def test_large_return_caps_approach_forward_divider(self):
        # with the return path shorted out, only Rs - body - Rb - load remains;
        # compare against an independently reduced complex divider
        params = BodyChannelParams(c_g_tx=1e-6, c_g_rx=1e-6)
        f = 500e3
        got = None
        sol = solve_ac(build_intra_body(params), f)
        got = sol[INTRA_PROBE[0]] - sol[INTRA_PROBE[1]]

        w = 2.0 * math.pi * f
        z_cl = 1.0 / (1j * w * params.load.value)
        z_cgrx = 1.0 / (1j * w * 1e-6)
        z_cgtx = 1.0 / (1j * w * 1e-6)
        z_cbody = 1.0 / (1j * w * params.c_body)
        z_branch = params.r_b + z_cl + z_cgrx
        z_shunt = z_cbody * z_branch / (z_cbody + z_branch)
        i_total = 1.0 / (params.r_s + z_shunt + z_cgtx)
        v_body = i_total * z_shunt
        i_branch = v_body / z_branch
        expected = i_branch * z_cl
        assert cmath.isclose(got, expected, rel_tol=1e-9)
        assert abs(got) == pytest.approx(1.0, abs=5e-3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BodyChannelParams(c_body=0.0)
        with pytest.raises(ValueError):
            BodyChannelParams(r_s=-1.0)
        with pytest.raises(ValueError):
            LoadSpec("inductive", 1.0)
        with pytest.raises(ValueError):
            LoadSpec.capacitive(-1e-12)

    def test_defaults_match_contract(self):
        p = BodyChannelParams()
        assert p.c_body == 150e-12
        assert p.c_g_tx == p.c_g_rx == 0.6e-12
        assert p.r_s == 50.0
        assert p.load.kind == "capacitive"


class TestInterBody:
    def test_netlist_structure(self):
        net = build_inter_body(InterBodyParams(base=BodyChannelParams(), c_c=21e-12))
        labels = {e.label for e in net.elements}
        assert {"VTX", "RS", "CGTX", "CBODY1", "CC", "RB", "CL", "CGRX", "CBODY2"} == labels
        assert set(INTER_PROBE) <= net.nodes()

    def test_anchor_ratio_at_500khz(self):
        params = InterBodyParams(base=BodyChannelParams(), c_c=21e-12)
        ratio = inter_body_gain_db(params, 500e3) - intra_body_gain_db(BodyChannelParams(), 500e3)
        assert ratio == pytest.approx(-17.08, abs=1.0)

    def test_full_coupling_gives_zero_extra_loss(self):
        params = InterBodyParams(base=BodyChannelParams(), c_c=150e-12)
        for f in (1e5, 5e5, 1e6):
            ratio = inter_body_gain_db(params, f) - intra_body_gain_db(BodyChannelParams(), f)
            assert ratio == pytest.approx(0.0, abs=1.0)

    def test_antenna_like_coupler_far_below_body_coupling(self):
        antenna = InterBodyParams(base=BodyChannelParams(), c_c=0.05e-12)
        body = InterBodyParams(base=BodyChannelParams(), c_c=21e-12)
        gap = inter_body_gain_db(body, 100e3) - inter_body_gain_db(antenna, 100e3)
        assert gap > 40.0

    def test_eqs_consistency_with_capacitance_ratio_oracle(self):
        # solved inter/intra ratio tracks extra_loss_db within 1 dB for any
        # capacitive-load parameter set in the EQS band
        rng = np.random.default_rng(42)
        for _ in range(30):
            c_body = rng.uniform(50e-12, 300e-12)
            base = BodyChannelParams(
                c_g_tx=rng.uniform(0.1e-12, 5e-12),
                c_g_rx=rng.uniform(0.1e-12, 5e-12),
                c_body=c_body,
                r_b=rng.uniform(100.0, 5e3),
                r_s=rng.uniform(10.0, 200.0),
                load=LoadSpec.capacitive(rng.uniform(0.5e-12, 10e-12)),
            )
            c_c = c_body * rng.uniform(1e-3, 1.0)
            f = rng.uniform(1e5, 1e6)
            ratio = (inter_body_gain_db(InterBodyParams(base=base, c_c=c_c), f)
                     - intra_body_gain_db(base, f))
            assert ratio == pytest.approx(extra_loss_db(c_c, c_body), abs=1.0)

    def test_gain_monotone_in_coupling_capacitance(self):
        gains = [inter_body_gain_db(InterBodyParams(base=BodyChannelParams(), c_c=c), 500e3)
                 for c in np.linspace(1e-12, 150e-12, 12)]
        assert all(b > a for a, b in zip(gains, gains[1:]))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_gain_rises_strictly_with_coupling_capacitance(self, data):
        # the parameter ranges of the flat-band ratio test above, with a
        # 10-1000 ohm resistive load beside the capacitive one, in both
        # environments; c_c1 < c_c2 are at least 1% apart
        draw = data.draw
        c_body = draw(st.floats(50e-12, 300e-12))
        load = draw(st.one_of(st.floats(0.5e-12, 10e-12).map(LoadSpec.capacitive),
                              st.floats(10.0, 1e3).map(LoadSpec.resistive)))
        base = BodyChannelParams(
            c_g_tx=draw(st.floats(0.1e-12, 5e-12)),
            c_g_rx=draw(st.floats(0.1e-12, 5e-12)),
            c_body=c_body,
            r_b=draw(st.floats(100.0, 5e3)),
            r_s=draw(st.floats(10.0, 200.0)),
            load=load,
            environment=draw(st.sampled_from(Environment)),
        )
        lower = draw(st.floats(1e-3, 1.0 / 1.01))
        upper = draw(st.floats(1.01 * lower, 1.0))
        f = draw(st.floats(1e5, 1e6))
        gains = [inter_body_gain_db(InterBodyParams(base=base, c_c=c_body * x), f)
                 for x in (lower, upper)]
        assert gains[1] > gains[0]

    def test_load_ordering_at_100khz(self):
        # antenna-style coupler with a 50 ohm receiver < body coupling with a
        # 50 ohm receiver < body coupling with a capacitive receiver
        resistive = BodyChannelParams(load=LoadSpec.resistive(50.0))
        capacitive = BodyChannelParams(load=LoadSpec.capacitive(1e-12))
        g_antenna = inter_body_gain_db(InterBodyParams(base=resistive, c_c=0.05e-12), 100e3)
        g_body_r = inter_body_gain_db(InterBodyParams(base=resistive, c_c=21e-12), 100e3)
        g_body_c = inter_body_gain_db(InterBodyParams(base=capacitive, c_c=21e-12), 100e3)
        assert g_antenna < g_body_r < g_body_c

    def test_coupling_larger_than_body2_rejected(self):
        with pytest.raises(ValueError, match="c_c"):
            InterBodyParams(base=BodyChannelParams(), c_c=200e-12)

    def test_tiny_body1_capacitance_rejected(self):
        # branch series capacitance would exceed body 1's self capacitance
        with pytest.raises(ValueError, match="re-partition"):
            InterBodyParams(base=BodyChannelParams(c_body=20e-12),
                            c_c=150e-12, c_body2=300e-12)

    def test_c_body2_defaults_to_body1(self):
        params = InterBodyParams(base=BodyChannelParams(c_body=120e-12), c_c=10e-12)
        assert params.c_body2 == 120e-12


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["c_g_tx", "c_g_rx", "c_body", "r_b", "r_s",
                                      "anechoic_boost"])
    def test_body_params(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            BodyChannelParams(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_load(self, value):
        with pytest.raises(ValueError, match="load value must be finite"):
            LoadSpec.capacitive(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_inter_body_params(self, value):
        with pytest.raises(ValueError, match="c_c must be finite"):
            InterBodyParams(base=BodyChannelParams(), c_c=value)
        with pytest.raises(ValueError, match="c_body2 must be finite"):
            InterBodyParams(base=BodyChannelParams(), c_c=21e-12, c_body2=value)

    @pytest.mark.parametrize("f", [math.nan, math.inf, 0.0])
    def test_single_frequency_gain(self, f):
        with pytest.raises(ValueError, match="frequency must be finite"):
            intra_body_gain_db(BodyChannelParams(), f)


class TestExtraLoss:
    def test_one_meter_anchor(self):
        assert extra_loss_db(21e-12, 150e-12) == pytest.approx(-17.0774, abs=1e-3)

    def test_five_meter_anchor(self):
        assert extra_loss_db(6.6e-12, 150e-12) == pytest.approx(-27.1309, abs=1e-3)

    def test_unity_ratio(self):
        assert extra_loss_db(150e-12, 150e-12) == 0.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            extra_loss_db(0.0, 150e-12)
        with pytest.raises(ValueError):
            extra_loss_db(21e-12, -1.0)


class TestCouplingModel:
    def test_two_anchor_fit_is_exact(self):
        model = fit_coupling_model([(1.0, 21e-12), (5.0, 6.6e-12)], d0=0.2)
        assert model.a == pytest.approx(22.464e-12, rel=1e-9)
        assert model.b == pytest.approx(2.28e-12, rel=1e-9)
        assert model.cap_at(1.0) == pytest.approx(21e-12, rel=1e-9)
        assert model.cap_at(5.0) == pytest.approx(6.6e-12, rel=1e-9)

    def test_default_model_is_fitted_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(coupling, "fit_coupling_model", lambda *a: calls.append(a))
        monkeypatch.setattr(config, "fit_coupling_model", lambda *a: calls.append(a))
        assert default_coupling_model() is DEFAULT_COUPLING_MODEL
        assert config.coupling_model_from_config({}) is DEFAULT_COUPLING_MODEL
        assert risk.AttackScenario(10.0, 1.0).coupling is DEFAULT_COUPLING_MODEL
        assert risk.InterferenceScenario(1.0, ((1.0, 1.0),)).coupling is DEFAULT_COUPLING_MODEL
        risk.min_safe_distance(20.0, 6.0)
        risk.max_safe_snr(6.0, 1.0)
        risk.max_cochannel_users(1.0, 1.0, 1.0, 6.0)
        multiregion.max_detection_distance(multiregion.default_region_config(), 5e5, -95.0)
        assert calls == []

    def test_close_range_value(self):
        model = default_coupling_model()
        assert model.cap_at(0.1) == pytest.approx(77.16e-12, rel=1e-3)

    def test_least_squares_for_three_anchors(self):
        base = CouplingCapModel(a=20e-12, d0=0.2, b=2e-12)
        anchors = [(d, base.cap_at(d)) for d in (0.5, 1.0, 4.0)]
        fitted = fit_coupling_model(anchors, d0=0.2)
        assert fitted.a == pytest.approx(base.a, rel=1e-9)
        assert fitted.b == pytest.approx(base.b, rel=1e-9)

    def test_equal_distances_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_coupling_model([(1.0, 21e-12), (1.0, 6.6e-12)])

    def test_increasing_anchors_rejected(self):
        with pytest.raises(ValueError, match="decreasing"):
            fit_coupling_model([(1.0, 5e-12), (5.0, 50e-12)])

    def test_model_strictly_decreasing_with_asymptote(self):
        model = default_coupling_model()
        ds = np.linspace(0.0, 50.0, 200)
        caps = [model.cap_at(d) for d in ds]
        assert all(b < a for a, b in zip(caps, caps[1:]))
        assert model.cap_at(1e9) == pytest.approx(model.b, rel=1e-6)

    def test_coupling_coefficient_values(self):
        model = default_coupling_model()
        assert coupling_coefficient(model, 1.0) == pytest.approx(0.14, abs=1e-3)
        assert coupling_coefficient(model, 5.0) == pytest.approx(0.044, abs=1e-3)
        assert coupling_coefficient(model, 1e9) == pytest.approx(model.b / 150e-12, rel=1e-6)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            default_coupling_model().cap_at(-0.1)

    @given(st.floats(min_value=default_coupling_model().b,
                     max_value=default_coupling_model().cap_at(0.0),
                     exclude_min=True, exclude_max=True))
    def test_distance_at_inverts_cap_at(self, c):
        model = default_coupling_model()
        d = model.distance_at(c)
        assert 0.0 <= d < math.inf
        assert model.cap_at(d) == pytest.approx(c, rel=1e-12)

    def test_distance_at_edges(self):
        model = default_coupling_model()
        assert model.distance_at(model.b) == math.inf
        assert model.distance_at(0.5 * model.b) == math.inf
        assert model.distance_at(model.cap_at(0.0)) == 0.0
        assert model.distance_at(2.0 * model.cap_at(0.0)) == 0.0
        with pytest.raises(ValueError):
            model.distance_at(math.nan)


class TestBisectRoot:
    def test_full_precision_root(self):
        root = _bisect_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert abs(root - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))

    def test_decreasing_function(self):
        assert _bisect_root(lambda x: 3.0 - x, 1.0, 10.0) == pytest.approx(3.0, rel=1e-15)

    def test_no_sign_change_rejected(self):
        with pytest.raises(ValueError, match="no sign change"):
            _bisect_root(lambda x: x, 1.0, 2.0)

    @pytest.mark.parametrize("root, lo, hi", [(1e-200, 1e-250, 1e-100), (1e250, 1e200, 1e300)])
    def test_bracket_whose_product_leaves_the_float_range(self, root, lo, hi):
        assert _bisect_root(lambda x: x - root, lo, hi) == pytest.approx(root, rel=1e-14, abs=0.0)


class TestEnvironment:
    def test_anechoic_lifts_eqs_gain_10db(self):
        open_air = InterBodyParams(base=BodyChannelParams(), c_c=21e-12)
        chamber = InterBodyParams(
            base=BodyChannelParams(environment=Environment.ANECHOIC), c_c=21e-12)
        rise = inter_body_gain_db(chamber, 500e3) - inter_body_gain_db(open_air, 500e3)
        assert rise == pytest.approx(10.0, abs=0.05)

    def test_pinned_boost_matches_recalibration(self):
        assert calibrate_anechoic_boost() == pytest.approx(ANECHOIC_RETURN_BOOST, abs=1e-4)

    def test_boost_calibration_solve_budget(self, solve_calls):
        # one reference solve and the ITP evaluations: 19 measured (bisection took 57)
        assert calibrate_anechoic_boost() == pytest.approx(ANECHOIC_RETURN_BOOST, abs=1e-4)
        assert len(solve_calls) <= 21

    def test_environment_accepts_strings(self):
        p = BodyChannelParams(environment="anechoic")
        assert p.environment is Environment.ANECHOIC

    def test_return_scale_anchors_intra_loss(self):
        # regression-anchor helper: 60 dB anechoic intra-body loss
        chamber = BodyChannelParams(environment=Environment.ANECHOIC)
        scale = calibrate_return_scale(60.0, params=chamber)
        scaled = scale_return_path(chamber, scale)
        intra = intra_body_gain_db(scaled, 500e3)
        assert intra == pytest.approx(-60.0, abs=0.05)
        inter = inter_body_gain_db(InterBodyParams(base=scaled, c_c=21e-12), 500e3)
        assert inter - intra == pytest.approx(-17.08, abs=1.0)


def rebuilt_return_scale(target_loss_db, c_c=None, params=BodyChannelParams(), f=500e3):
    """calibrate_return_scale as a rebuild of the whole circuit at every step."""
    def gain(scale):
        scaled = scale_return_path(params, scale)
        if c_c is None:
            return intra_body_gain_db(scaled, f)
        return inter_body_gain_db(InterBodyParams(base=scaled, c_c=c_c), f)

    return _bisect_root(lambda scale: gain(scale) + target_loss_db, 1e-3, 1e3)


def rebuilt_anechoic_boost(c_c=21e-12, f=500e3, target_db=10.0):
    """calibrate_anechoic_boost as a rebuild of the whole circuit at every step."""
    base = BodyChannelParams()
    reference = inter_body_gain_db(InterBodyParams(base=base, c_c=c_c), f)

    def rise(boost):
        boosted = scale_return_path(base, boost)
        return inter_body_gain_db(InterBodyParams(base=boosted, c_c=c_c), f) - reference

    return _bisect_root(lambda boost: rise(boost) - target_db, 1.0, 50.0)


CHAMBER = BodyChannelParams(environment=Environment.ANECHOIC)


def circuit_of(inter, c_c=21e-12):
    """(build, probe): the builder of the intra- or inter-body circuit from a parameter set."""
    if inter:
        return lambda p: build_inter_body(InterBodyParams(base=p, c_c=c_c)), INTER_PROBE
    return build_intra_body, INTRA_PROBE


class TestCalibrationsRestampOneCircuit:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(1e-3, 1e3), st.sampled_from(list(Environment)), st.booleans())
    def test_restamped_circuit_is_the_rebuilt_one(self, scale, environment, inter):
        params = BodyChannelParams(environment=environment)
        build, probe = circuit_of(inter)
        stamps = []
        real_solve_grid = solver._solve_grid
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_solve_grid",
                          lambda stamp, freqs: stamps.append(stamp) or real_solve_grid(stamp, freqs))
            bodychannel._return_path_gain(build(params), params, probe, 500e3)(scale)
        [got] = stamps  # the stamp that the step solves
        rebuilt = build(scale_return_path(params, scale))
        fresh = solver._build_stamp(rebuilt)
        assert got.values == tuple(e.value for e in rebuilt.elements)
        assert got.topology.labels == tuple(e.label for e in rebuilt.elements)
        for name in ("g", "c", "rhs"):
            assert np.array_equal(getattr(got, name), getattr(fresh, name))
        assert got.gamma is None and fresh.gamma is None

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-3, 1e3), st.sampled_from(list(Environment)), st.booleans(),
           st.floats(1e-15, 150e-12), st.floats(1e3, 1e9),
           st.sampled_from([LoadSpec.capacitive(), LoadSpec.resistive(50.0)]))
    def test_a_step_is_the_rebuilt_circuits_gain_bit_for_bit(self, scale, environment, inter,
                                                             c_c, f, load):
        params = BodyChannelParams(environment=environment, load=load)
        build, probe = circuit_of(inter, c_c)
        step = bodychannel._return_path_gain(build(params), params, probe, f)
        want = bodychannel._probe_gain_db(build(scale_return_path(params, scale)), probe, f)
        assert step(scale).hex() == want.hex()

    def test_calibrations_return_the_rebuild_floats(self):
        assert calibrate_anechoic_boost() == rebuilt_anechoic_boost()
        assert (calibrate_anechoic_boost(c_c=8e-12, f=2e5, target_db=7.5)
                == rebuilt_anechoic_boost(c_c=8e-12, f=2e5, target_db=7.5))
        assert calibrate_return_scale(60.0, params=CHAMBER) == rebuilt_return_scale(60.0, params=CHAMBER)
        assert calibrate_return_scale(80.0, c_c=21e-12) == rebuilt_return_scale(80.0, c_c=21e-12)

    def test_one_circuit_is_stamped_per_calibration(self, monkeypatch):
        built = []
        real_build = solver._build_stamp
        monkeypatch.setattr(solver, "_build_stamp", lambda net: built.append(net) or real_build(net))
        calibrate_return_scale(80.0, c_c=21e-12)
        assert len(built) == 1
        calibrate_anechoic_boost()
        assert len(built) == 2

    @pytest.mark.parametrize("calibrate, references", [
        (calibrate_anechoic_boost, 1),  # the open-air reference gain
        (lambda: calibrate_return_scale(60.0, params=CHAMBER), 0),
        (lambda: calibrate_return_scale(80.0, c_c=21e-12), 0),
    ])
    def test_each_itp_evaluation_is_one_solve_grid_point(self, solve_calls, monkeypatch,
                                                         calibrate, references):
        steps = []
        real_bisect_root = bodychannel._bisect_root

        def counting_root(fn, lo, hi):
            def step(x):
                before = len(solve_calls)
                y = fn(x)
                steps.append(solve_calls[before:])
                return y

            return real_bisect_root(step, lo, hi)

        monkeypatch.setattr(bodychannel, "_bisect_root", counting_root)
        calibrate()
        assert steps and all(len(points) == 1 and points[0][1] == 500e3 for points in steps)
        assert len(solve_calls) == references + len(steps)

    def test_bad_scale_rejected(self):
        gain = bodychannel._return_path_gain(build_intra_body(BodyChannelParams()),
                                             BodyChannelParams(), INTRA_PROBE, 500e3)
        for scale in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^scale must be finite and > 0"):
                gain(scale)


def refuse_linalg(monkeypatch, names):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg reached")

    for name in names:
        monkeypatch.setattr(np.linalg, name, refuse)


class TestCalibrationErrors:
    """A calibration step raises the errors that a rebuilt circuit's solve would."""

    def test_a_return_capacitance_that_rounds_to_zero_is_named(self):
        with pytest.raises(ValueError, match=r"^CGTX must be finite and > 0, got 0\.0$"):
            calibrate_return_scale(60.0, params=BodyChannelParams(c_g_tx=5e-324, c_g_rx=5e-324))

    def test_the_boost_names_the_element_out_of_range(self, monkeypatch):
        refuse_linalg(monkeypatch, ("solve", "svd", "eigh", "eigvalsh"))
        with pytest.raises(ValueError) as info:
            calibrate_anechoic_boost(params=BodyChannelParams(c_g_tx=1e305, c_g_rx=1e305))
        assert str(info.value) == ("element CGTX (C = 1e+305) puts the MNA system out of the "
                                   "float range at f=500000 Hz")

    def test_the_scale_names_the_restamped_value(self, monkeypatch):
        # the first step, at scale 1e-3, is out of range; no system reaches LAPACK
        refuse_linalg(monkeypatch, ("solve", "svd"))
        with pytest.raises(ValueError) as info:
            calibrate_return_scale(60.0, params=BodyChannelParams(c_g_tx=1e305, c_g_rx=1e305))
        assert str(info.value) == ("element CGTX (C = 1e+302) puts the MNA system out of the "
                                   "float range at f=500000 Hz")

    @pytest.mark.parametrize("calibrate", [
        lambda params: calibrate_return_scale(60.0, params=params),
        lambda params: calibrate_return_scale(80.0, c_c=21e-12, params=params),
        lambda params: calibrate_anechoic_boost(params=params),
    ])
    def test_huge_return_capacitances_are_singular(self, calibrate):
        # the type only: the message names a node, where the cause is the values' spread
        with pytest.raises(SingularCircuitError):
            calibrate(BodyChannelParams(c_g_tx=1e200, c_g_rx=1e200))

    @pytest.mark.parametrize("f", [0.0, math.nan, math.inf])
    def test_the_frequency_is_checked(self, f):
        with pytest.raises(ValueError, match="^frequency must be finite and > 0"):
            calibrate_return_scale(60.0, f=f)


class TestScalarGainIsTheSweepGain:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.1, 10.0), st.sampled_from(["open_air", "anechoic"]),
           st.floats(4.0, 6.0), st.integers(1, 300))
    def test_intra_gain_db_bit_equal_to_sweep(self, scale, environment, log_start, n):
        params = scale_return_path(BodyChannelParams(environment=environment), scale)
        grid = FrequencyGrid.log(10 ** log_start, 1e9, n)
        assert ([intra_body_gain_db(params, f) for f in grid]
                == intra_body_sweep(params, grid).gain_db().tolist())


class TestNetlistExport:
    def test_intra_round_trips_through_text_format(self):
        net = build_intra_body(BodyChannelParams())
        again = parse_netlist(format_netlist(net))
        grid = FrequencyGrid.log(1e5, 1e6, 5)
        a = transfer(net, "VTX", INTRA_PROBE, grid)
        b = transfer(again, "VTX", INTRA_PROBE, grid)
        assert np.array_equal(a.gain, b.gain)

    def test_inter_round_trips_through_text_format(self):
        net = build_inter_body(InterBodyParams(base=BodyChannelParams(), c_c=21e-12))
        again = parse_netlist(format_netlist(net, header="inter-body scenario"))
        assert again.elements == net.elements
