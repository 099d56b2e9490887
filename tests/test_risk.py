import math

import numpy as np
import pytest

from eqshbc.bodychannel import extra_loss_db
from eqshbc.coupling import CouplingCapModel, default_coupling_model
from eqshbc.risk import (
    MAX_COCHANNEL_USERS,
    AttackScenario,
    InterferenceScenario,
    UnboundedResult,
    attack_report,
    is_attack_feasible,
    max_cochannel_users,
    max_safe_snr,
    min_safe_distance,
    sir_db,
    snooper_snr_db,
)


class TestSnooperSnr:
    def test_one_meter(self):
        s = AttackScenario(snr_intended_db=10.0, attacker_distance=1.0)
        assert snooper_snr_db(s) == pytest.approx(10.0 - 17.0774, abs=1e-3)

    def test_ten_centimeters_below_threshold(self):
        s = AttackScenario(snr_intended_db=10.0, attacker_distance=0.1)
        got = snooper_snr_db(s)
        # oracle: 10 + 20*log10(C_C(0.1)/150 pF) with the fitted model
        c = default_coupling_model().cap_at(0.1)
        assert got == pytest.approx(10.0 + 20.0 * math.log10(c / 150e-12), rel=1e-12)
        assert got == pytest.approx(4.225, abs=5e-3)
        assert got < 6.0

    def test_full_coupling_passes_snr_through(self):
        # model pinned so C_C equals c_body at 0.5 m
        model = CouplingCapModel(a=150e-12 * 1.0, d0=0.5, b=0.0)
        s = AttackScenario(snr_intended_db=12.5, attacker_distance=0.5, coupling=model)
        assert snooper_snr_db(s) == pytest.approx(12.5, abs=1e-9)

    def test_strictly_decreasing_in_distance(self):
        snrs = [snooper_snr_db(AttackScenario(10.0, d)) for d in np.linspace(0.0, 20.0, 30)]
        assert all(b < a for a, b in zip(snrs, snrs[1:]))

    def test_unit_slope_in_intended_snr(self):
        lo = snooper_snr_db(AttackScenario(10.0, 1.0))
        hi = snooper_snr_db(AttackScenario(25.0, 1.0))
        assert hi - lo == pytest.approx(15.0, abs=1e-12)


class TestFeasibility:
    def test_10db_at_1m_not_feasible(self):
        assert not is_attack_feasible(AttackScenario(10.0, 1.0))

    def test_30db_at_1m_feasible(self):
        s = AttackScenario(30.0, 1.0)
        assert snooper_snr_db(s) == pytest.approx(12.92, abs=5e-3)
        assert is_attack_feasible(s)

    def test_boundary_is_inclusive(self):
        model = CouplingCapModel(a=150e-12, d0=1.0, b=0.0)  # unity coupling at d=0
        s = AttackScenario(snr_intended_db=0.0, attacker_distance=0.0,
                           snr_threshold_db=0.0, coupling=model)
        assert snooper_snr_db(s) == pytest.approx(0.0, abs=1e-12)
        assert is_attack_feasible(s)


class TestSafeDistance:
    def test_10db_threshold_6_safe_below_10cm(self):
        d = min_safe_distance(10.0, 6.0)
        assert 0.0 < d < 0.1

    def test_boundary_lands_on_threshold(self):
        d = min_safe_distance(10.0, 6.0)
        snr = snooper_snr_db(AttackScenario(10.0, d))
        assert snr == pytest.approx(6.0, abs=1e-3)

    def test_nothing_to_snoop_gives_zero(self):
        assert min_safe_distance(-100.0, 6.0) == 0.0

    @pytest.mark.parametrize("snr, threshold, c_body", [
        (0.0, 1e4, 150e-12),    # 10^(1e4/20) raises OverflowError
        (0.0, 200.0, 1e300),    # 10^10 is finite; times c_body it is not
        (-1e308, 1e308, 150e-12),  # the threshold margin itself overflows
    ])
    def test_capacitance_past_the_float_range_gives_zero(self, snr, threshold, c_body):
        assert min_safe_distance(snr, threshold, c_body=c_body) == 0.0

    def test_monotone_in_intended_snr(self):
        ds = [min_safe_distance(snr, 6.0) for snr in (8.0, 12.0, 20.0, 30.0, 40.0)]
        assert all(b > a for a, b in zip(ds, ds[1:]))

    def test_far_tail_makes_high_snr_unbounded(self):
        # b = 2.28 pF keeps the snooper above threshold at any distance for
        # intended SNR past ~42 dB
        with pytest.raises(UnboundedResult):
            min_safe_distance(60.0, 6.0)

    def test_zero_tail_stays_bounded(self):
        model = CouplingCapModel(a=22.464e-12, d0=0.2, b=0.0)
        assert min_safe_distance(60.0, 6.0, coupling=model) < 100.0

    @pytest.mark.parametrize("snr", [10.0, 15.0, 20.0, 30.0, 40.0])
    def test_closed_form_puts_snooper_on_threshold(self, snr):
        d = min_safe_distance(snr, 6.0)
        assert snooper_snr_db(AttackScenario(snr, d)) == pytest.approx(6.0, abs=1e-9)


NAN, INF = math.nan, math.inf


class TestNonFiniteInputs:
    @pytest.mark.parametrize("kwargs", [
        {"snr_intended_db": NAN, "attacker_distance": 1.0},
        {"snr_intended_db": 10.0, "attacker_distance": NAN},
        {"snr_intended_db": 10.0, "attacker_distance": INF},
        {"snr_intended_db": 10.0, "attacker_distance": 1.0, "snr_threshold_db": -INF},
        {"snr_intended_db": 10.0, "attacker_distance": 1.0, "c_body": NAN},
    ])
    def test_attack_scenario(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            AttackScenario(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"v_sig_user": NAN},
        {"v_sig_user": INF},
        {"v_sig_user": 1.0, "interferers": ((NAN, 1.0),)},
        {"v_sig_user": 1.0, "interferers": ((1.0, INF),)},
        {"v_sig_user": 1.0, "c_body": INF},
    ])
    def test_interference_scenario(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            InterferenceScenario(**kwargs)

    @pytest.mark.parametrize("args", [(NAN, 6.0), (10.0, NAN), (INF, 6.0), (10.0, -INF)])
    def test_min_safe_distance(self, args):
        with pytest.raises(ValueError, match="finite"):
            min_safe_distance(*args)

    @pytest.mark.parametrize("args", [(NAN, 1.0), (6.0, NAN), (6.0, INF)])
    def test_max_safe_snr(self, args):
        with pytest.raises(ValueError, match="finite"):
            max_safe_snr(*args)

    @pytest.mark.parametrize("args", [(INF, 1.0, 1.0, 6.0), (1.0, 1.0, NAN, 6.0),
                                      (1.0, 1.0, 1.0, NAN)])
    def test_max_cochannel_users(self, args):
        with pytest.raises(ValueError, match="finite"):
            max_cochannel_users(*args)


class TestMaxSafeSnr:
    def test_one_meter(self):
        assert max_safe_snr(6.0, 1.0) == pytest.approx(23.077, abs=2e-3)

    def test_five_meters(self):
        assert max_safe_snr(6.0, 5.0) == pytest.approx(33.131, abs=2e-3)

    def test_equals_threshold_at_full_coupling(self):
        model = CouplingCapModel(a=150e-12, d0=0.5, b=0.0)
        assert max_safe_snr(6.0, 0.5, coupling=model, c_body=150e-12) == pytest.approx(6.0)

    def test_consistent_with_min_safe_distance(self):
        snr = 18.0
        d = min_safe_distance(snr, 6.0)
        assert max_safe_snr(6.0, d) == pytest.approx(snr, abs=1e-3)

    def test_requires_positive_distance(self):
        with pytest.raises(ValueError):
            max_safe_snr(6.0, 0.0)


class TestSir:
    def test_single_equal_interferer_at_1m(self):
        s = InterferenceScenario(v_sig_user=1.0, interferers=((1.0, 1.0),))
        assert sir_db(s) == pytest.approx(17.0774, abs=1e-3)

    def test_two_equal_interferers(self):
        s = InterferenceScenario(v_sig_user=1.0, interferers=((1.0, 1.0), (1.0, 1.0)))
        assert sir_db(s) == pytest.approx(17.0774 - 6.0206, abs=1e-3)

    def test_no_interferers_is_infinite(self):
        assert sir_db(InterferenceScenario(v_sig_user=1.0)) == math.inf

    def test_single_interferer_is_negative_extra_loss(self):
        model = default_coupling_model()
        for d in (0.5, 1.0, 3.0, 8.0):
            s = InterferenceScenario(v_sig_user=1.0, interferers=((1.0, d),))
            assert sir_db(s) == pytest.approx(-extra_loss_db(model.cap_at(d), 150e-12),
                                              rel=1e-12)

    def test_decreases_as_interferer_approaches(self):
        values = [sir_db(InterferenceScenario(1.0, ((1.0, d),)))
                  for d in (10.0, 5.0, 2.0, 1.0, 0.5)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_decreases_as_interferers_added(self):
        base = ((1.0, 1.0),)
        values = [sir_db(InterferenceScenario(1.0, base * n)) for n in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            InterferenceScenario(v_sig_user=0.0)
        with pytest.raises(ValueError):
            InterferenceScenario(v_sig_user=1.0, interferers=((1.0, 0.0),))


class TestMaxCochannelUsers:
    def test_three_users_at_1m_with_6db_floor(self):
        assert max_cochannel_users(1.0, 1.0, 1.0, 6.0) == 3

    def test_matches_direct_sir_evaluation(self):
        n = max_cochannel_users(1.0, 1.0, 1.0, 6.0)
        ok = sir_db(InterferenceScenario(1.0, ((1.0, 1.0),) * n))
        too_many = sir_db(InterferenceScenario(1.0, ((1.0, 1.0),) * (n + 1)))
        assert ok >= 6.0 > too_many

    def test_strict_floor_gives_zero(self):
        assert max_cochannel_users(1.0, 1.0, 1.0, 20.0) == 0

    def test_vanishing_coupling_hits_documented_cap(self):
        model = CouplingCapModel(a=1e-18, d0=0.2, b=0.0)
        assert max_cochannel_users(1.0, 1.0, 50.0, 6.0, coupling=model) == MAX_COCHANNEL_USERS

    @pytest.mark.parametrize("args", [
        (1e300, 1e-300, 1.0, 0.0),  # the bound overflows to inf
        (1.0, 1.0, 1.0, -1e4),      # 10^(sir_min/20) underflows to 0
        (1.0, 1e-300, 1.0, -1000.0),  # the per-user term underflows to 0
    ])
    def test_bound_past_the_float_range_hits_documented_cap(self, args):
        assert max_cochannel_users(*args) == MAX_COCHANNEL_USERS

    @pytest.mark.parametrize("args", [
        (1.0, 1.0, 1.0, 1e4),        # 10^(sir_min/20) raises OverflowError
        (1e-300, 1e300, 1.0, 200.0),  # the per-user term overflows to inf
    ])
    def test_floor_past_the_float_range_gives_zero(self, args):
        assert max_cochannel_users(*args) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            max_cochannel_users(0.0, 1.0, 1.0, 6.0)


class TestAttackReport:
    def test_record_fields(self):
        record = attack_report(AttackScenario(10.0, 1.0))
        assert record["feasible"] is False
        assert record["snooper_snr_db"] == pytest.approx(-7.0774, abs=1e-3)
        assert record["min_safe_distance_m"] == pytest.approx(0.0432, abs=1e-3)
        assert record["max_safe_snr_db"] == pytest.approx(23.077, abs=2e-3)

    def test_unbounded_distance_reported_as_null(self):
        record = attack_report(AttackScenario(60.0, 1.0))
        assert record["min_safe_distance_m"] is None
        assert record["feasible"] is True
