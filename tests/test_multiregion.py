import json
import math
from collections import Counter

import numpy as np
import pytest

from eqshbc.bodychannel import Environment
from eqshbc.cli import main
from eqshbc.multiregion import (
    ANECHOIC_EM_ATTENUATION_DB,
    DEVICE_REF_OPEN_AIR_DB,
    EM_REF_OPEN_AIR_DB,
    SPEED_OF_LIGHT,
    CrossoverError,
    DeviceModel,
    EmBodyModel,
    RegionLabel,
    body_em_pair_gain,
    calibrate_device_reference,
    calibrate_em_reference,
    classify_grid,
    classify_region,
    classify_sweep,
    crossover_frequency,
    default_region_config,
    device_pair_gain,
    friis_gain,
    max_detection_distance,
    monopole_rad_resistance,
    total_response,
)
from eqshbc.solver import FrequencyGrid


class TestMonopoleRadResistance:
    def test_tenth_wavelength(self):
        # 80 * pi^2 * 0.01
        f = 0.1 * SPEED_OF_LIGHT / 1.0
        assert monopole_rad_resistance(1.0, f) == pytest.approx(7.8957, abs=1e-3)

    def test_body_at_1mhz(self):
        expected = 80.0 * math.pi ** 2 * (1.8 * 1e6 / SPEED_OF_LIGHT) ** 2
        assert expected == pytest.approx(0.0284, abs=2e-4)
        assert monopole_rad_resistance(1.8, 1e6) == pytest.approx(expected, rel=1e-12)

    def test_vanishes_with_length(self):
        assert monopole_rad_resistance(1e-6, 1e3) == pytest.approx(0.0, abs=1e-20)

    def test_validity_bound(self):
        # quarter-wave edge is accepted, beyond is rejected
        f_quarter = SPEED_OF_LIGHT / (4.0 * 1.8)
        monopole_rad_resistance(1.8, f_quarter)
        with pytest.raises(ValueError, match="validity"):
            monopole_rad_resistance(1.8, 1.01 * f_quarter)
        with pytest.raises(ValueError):
            monopole_rad_resistance(-1.0, 1e6)


class TestBodyEmModel:
    def test_40db_per_decade_below_resonance(self):
        model = EmBodyModel()
        rise = body_em_pair_gain(model, 10e6) - body_em_pair_gain(model, 1e6)
        assert rise == pytest.approx(40.0, abs=1.0)

    def test_regression_slope_1_to_10mhz(self):
        model = EmBodyModel()
        fs = np.geomspace(1e6, 10e6, 31)
        gains = [body_em_pair_gain(model, f) for f in fs]
        slope = np.polyfit(np.log10(fs), gains, 1)[0]
        assert slope == pytest.approx(40.0, abs=2.0)

    def test_peak_inside_20_to_80_mhz(self):
        model = EmBodyModel(height=1.8)
        fs = np.geomspace(1e6, 1e9, 4001)
        peak = fs[np.argmax([body_em_pair_gain(model, f) for f in fs])]
        assert 20e6 <= peak <= 80e6
        assert peak == pytest.approx(model.f_res, rel=1e-3)

    def test_doubling_height_halves_resonance(self):
        assert EmBodyModel(height=3.6).f_res == pytest.approx(EmBodyModel(height=1.8).f_res / 2)

    def test_peak_gain_equals_reference(self):
        model = EmBodyModel(ref_db=-20.0)
        assert body_em_pair_gain(model, model.f_res) == pytest.approx(-20.0, abs=1e-9)

    def test_rolls_off_above_resonance(self):
        model = EmBodyModel()
        assert body_em_pair_gain(model, 10 * model.f_res) < body_em_pair_gain(model, model.f_res) - 30


class TestDeviceModel:
    def test_5cm_electrode_peaks_at_1p5_ghz(self):
        model = DeviceModel(electrode_length=0.05)
        fs = np.geomspace(1e8, 5e9, 8001)
        peak = fs[np.argmax([device_pair_gain(model, f) for f in fs])]
        assert peak == pytest.approx(1.5e9, rel=0.01)

    def test_10cm_electrode_peaks_at_750_mhz(self):
        assert DeviceModel(electrode_length=0.10).f_res == pytest.approx(749.48e6, rel=1e-3)

    def test_low_frequency_far_below_half_ghz(self):
        model = DeviceModel()
        assert device_pair_gain(model, 500e6) - device_pair_gain(model, 1e6) > 40.0


class TestFriis:
    def test_doubling_distance_costs_6db(self):
        assert friis_gain(2.0, 1e6) - friis_gain(1.0, 1e6) == pytest.approx(-6.0206, abs=1e-3)

    def test_doubling_frequency_costs_6db(self):
        assert friis_gain(1.0, 2e6) - friis_gain(1.0, 1e6) == pytest.approx(-6.0206, abs=1e-3)

    def test_zero_at_one_wavelength(self):
        f = 1e6
        assert friis_gain(SPEED_OF_LIGHT / f, f) == pytest.approx(0.0, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            friis_gain(0.0, 1e6)
        with pytest.raises(ValueError):
            friis_gain(1.0, -1e6)


GRID = FrequencyGrid.log(1e5, 1e9, 101)


class TestTotalResponse:
    def test_power_sum_dominates_components(self):
        config = default_region_config()
        eqs = config.eqs_sweep(GRID)
        total = total_response(eqs, config.em, config.device)
        total_db = total.gain_db()
        for i, f in enumerate(GRID):
            eqs_db = 20 * math.log10(abs(eqs.gain[i]))
            assert total_db[i] >= eqs_db - 1e-9
            assert total_db[i] >= body_em_pair_gain(config.em, f) - 1e-9
            assert total_db[i] >= device_pair_gain(config.device, f) - 1e-9

    def test_degenerate_refs_reduce_to_eqs_sweep(self):
        config = default_region_config()
        eqs = config.eqs_sweep(GRID)
        total = total_response(eqs, EmBodyModel(ref_db=-math.inf), DeviceModel(ref_db=-math.inf))
        assert np.allclose(np.abs(total.gain), np.abs(eqs.gain), rtol=1e-12)

    def test_shape_flat_rising_peaked_rising(self):
        config = default_region_config()
        eqs = config.eqs_sweep(GRID)
        total = total_response(eqs, config.em, config.device)
        f = np.asarray(GRID.points)
        g = total.gain_db()
        low = g[f <= 5e5]
        assert low.max() - low.min() < 1.0  # flat well below the 1 MHz crossover
        mid = g[(f > 2e6) & (f < 30e6)]
        assert all(b > a for a, b in zip(mid, mid[1:]))  # rising through EM region
        peak_f = f[np.argmax(g[(f > 1e6) & (f < 2e8)].max() == g)]
        assert 20e6 <= peak_f <= 80e6
        assert g[-1] > g[np.searchsorted(f, 2e8)]  # rising again toward 1 GHz

    def test_anechoic_plateau_10db_above_open_air(self):
        open_air = default_region_config(Environment.OPEN_AIR)
        chamber = default_region_config(Environment.ANECHOIC)
        grid = FrequencyGrid.log(4e5, 6e5, 3)
        t_open = total_response(open_air.eqs_sweep(grid), open_air.em, open_air.device)
        t_cham = total_response(chamber.eqs_sweep(grid), chamber.em, chamber.device)
        rise = t_cham.gain_db()[1] - t_open.gain_db()[1]
        assert rise == pytest.approx(10.0, abs=1.0)


class TestClassification:
    def test_canonical_labels(self):
        config = default_region_config()
        assert classify_region(500e3, config) is RegionLabel.EQS
        assert classify_region(5e6, config) is RegionLabel.EM_SMALL_MONOPOLE
        assert classify_region(50e6, config) is RegionLabel.EM_RESONANT
        assert classify_region(500e6, config) is RegionLabel.DEVICE_COUPLING

    def test_at_most_three_transitions(self):
        for env in (Environment.OPEN_AIR, Environment.ANECHOIC):
            labels = classify_grid(default_region_config(env), FrequencyGrid.log(1e5, 1e9, 400))
            transitions = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
            assert transitions <= 3

    def test_labels_come_in_frequency_order(self):
        order = [RegionLabel.EQS, RegionLabel.EM_SMALL_MONOPOLE,
                 RegionLabel.EM_RESONANT, RegionLabel.DEVICE_COUPLING]
        labels = classify_grid(default_region_config(), FrequencyGrid.log(1e5, 1e9, 400))
        indices = [order.index(l) for l in labels]
        assert indices == sorted(indices)


class TestCrossover:
    def test_open_air_eqs_to_em_near_1mhz(self):
        f = crossover_frequency(default_region_config(), RegionLabel.EQS,
                                RegionLabel.EM_SMALL_MONOPOLE)
        assert 0.5e6 <= f <= 2e6

    def test_anechoic_eqs_to_em_near_10mhz(self):
        f = crossover_frequency(default_region_config(Environment.ANECHOIC),
                                RegionLabel.EQS, RegionLabel.EM_SMALL_MONOPOLE)
        assert 5e6 <= f <= 20e6

    def test_em_to_device_near_150mhz(self):
        f = crossover_frequency(default_region_config(), RegionLabel.EM_RESONANT,
                                RegionLabel.DEVICE_COUPLING)
        assert f == pytest.approx(150e6, rel=0.05)

    def test_disabled_em_never_crosses(self):
        config = default_region_config()
        muted = type(config)(channel=config.channel,
                             em=EmBodyModel(ref_db=-math.inf), device=config.device)
        with pytest.raises(CrossoverError, match="never"):
            crossover_frequency(muted, RegionLabel.EQS, RegionLabel.EM_SMALL_MONOPOLE)

    def test_same_mechanism_rejected(self):
        with pytest.raises(CrossoverError, match="share a mechanism"):
            crossover_frequency(default_region_config(), RegionLabel.EM_SMALL_MONOPOLE,
                                RegionLabel.EM_RESONANT)

    def test_non_adjacent_rejected(self):
        with pytest.raises(CrossoverError, match="adjacent"):
            crossover_frequency(default_region_config(), RegionLabel.EQS,
                                RegionLabel.DEVICE_COUPLING)

    def test_raising_boost_raises_plateau_and_crossover(self):
        import dataclasses
        base_cfg = default_region_config(Environment.ANECHOIC)
        previous_gain, previous_f = -math.inf, 0.0
        for boost in (1.5, 2.0, 2.5):
            channel = dataclasses.replace(
                base_cfg.channel,
                base=dataclasses.replace(base_cfg.channel.base, anechoic_boost=boost))
            config = type(base_cfg)(channel=channel, em=base_cfg.em, device=base_cfg.device)
            gain = config.eqs_gain_db(500e3)
            f = crossover_frequency(config, RegionLabel.EQS, RegionLabel.EM_SMALL_MONOPOLE)
            assert gain > previous_gain
            assert f > previous_f
            previous_gain, previous_f = gain, f


class TestMaxDetectionDistance:
    # qualitative trend only: flat and short in the quasistatic region,
    # rising steeply through the EM region, saturating at the cap beyond

    def test_flat_in_eqs_region(self):
        config = default_region_config()
        d1 = max_detection_distance(config, 150e3, -95.0)
        d2 = max_detection_distance(config, 500e3, -95.0)
        assert d1 == pytest.approx(d2, rel=0.05)
        assert d1 < 100.0

    def test_rises_through_em_region(self):
        config = default_region_config()
        ds = [max_detection_distance(config, f, -95.0) for f in (2e6, 5e6, 10e6, 20e6)]
        assert all(b > a for a, b in zip(ds, ds[1:]))

    def test_saturates_at_cap_in_resonant_and_device_regions(self):
        from eqshbc.multiregion import DETECTION_DISTANCE_CAP_M
        config = default_region_config()
        assert max_detection_distance(config, 40e6, -95.0) == DETECTION_DISTANCE_CAP_M
        assert max_detection_distance(config, 500e6, -95.0) == DETECTION_DISTANCE_CAP_M

    def test_monotone_in_sensitivity(self):
        config = default_region_config()
        ds = [max_detection_distance(config, 500e3, s) for s in (-80.0, -90.0, -95.0)]
        assert all(b > a for a, b in zip(ds, ds[1:]))

    def test_deaf_receiver_detects_essentially_nowhere(self):
        # quasistatic path gives exactly 0; the far-field 1/d extrapolation
        # leaves a sub-millimeter residue
        config = default_region_config()
        assert max_detection_distance(config, 500e3, 20.0) < 1e-3


class TestCalibrationRegression:
    def test_em_reference_pins_1mhz_crossover(self):
        config = default_region_config()
        assert calibrate_em_reference(config, 1e6) == pytest.approx(EM_REF_OPEN_AIR_DB, abs=5e-3)

    def test_anechoic_attenuation_pins_10mhz_crossover(self):
        chamber = default_region_config(Environment.ANECHOIC)
        em_ref_anechoic = calibrate_em_reference(chamber, 10e6)
        assert (EM_REF_OPEN_AIR_DB - em_ref_anechoic) == pytest.approx(
            ANECHOIC_EM_ATTENUATION_DB, abs=5e-3)

    def test_device_reference_pins_150mhz_handoff(self):
        config = default_region_config()
        got = calibrate_device_reference(config.em, config.device, 150e6)
        assert got == pytest.approx(DEVICE_REF_OPEN_AIR_DB, abs=5e-3)

    def test_open_air_plateau_at_minus_80(self):
        assert default_region_config().eqs_gain_db(500e3) == pytest.approx(-80.0, abs=0.05)


class TestSolveOnce:
    def test_classify_sweep_matches_classify_region(self, solve_calls):
        config = default_region_config()
        grid = FrequencyGrid.log(1e5, 1e9, 60)
        labels = classify_sweep(config, config.eqs_sweep(grid))
        assert len(solve_calls) == len(grid)
        assert labels == [classify_region(f, config) for f in grid]
        assert labels == classify_grid(config, grid)

    def test_cli_sweep_solves_each_point_once(self, solve_calls, tmp_path):
        assert main(["sweep", "--scenario", "inter_body.cfg", "--grid", "1e5:1e9:80",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert len(solve_calls) == 80

    @pytest.mark.parametrize("environment, measured", [("open_air", 10), ("anechoic", 11)])
    def test_eqs_to_em_crossover_solves(self, solve_calls, environment, measured):
        # the 241-point scan as one sweep, then single-point root-search steps
        # (plain bisection took 50)
        crossover_frequency(default_region_config(environment), RegionLabel.EQS,
                            RegionLabel.EM_SMALL_MONOPOLE)
        batches = Counter(call for call, _ in solve_calls)
        assert sorted(batches.values())[-1] == 241
        assert len(solve_calls) - 241 <= measured + 2

    def test_em_to_device_crossover_solves_nothing(self, solve_calls):
        f = crossover_frequency(default_region_config(), RegionLabel.EM_RESONANT,
                                RegionLabel.DEVICE_COUPLING)
        assert f == pytest.approx(150e6, rel=0.05)
        assert solve_calls == []

    def test_cli_regions_solves_grid_and_scan_once(self, solve_calls, tmp_path):
        # grid (n) + the EQS->EM crossover scan (241) + its root search (10 measured);
        # the detection distances reuse the grid sweep instead of re-solving it
        n = 120
        out = tmp_path / "regions.json"
        assert main(["regions", "--grid", f"1e5:1e9:{n}", "--sensitivity-db", "-90",
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["max_detection_distance_m"]) == n
        assert len(solve_calls) <= n + 241 + 12
        batches = sorted(size for size in Counter(call for call, _ in solve_calls).values()
                         if size > 1)
        assert batches == [n, 241]

    @pytest.mark.parametrize("environment", ["open_air", "anechoic"])
    def test_scalar_and_sweep_gains_agree_bit_for_bit(self, environment):
        # 400 points span three solver blocks of the 7-unknown circuit
        config = default_region_config(environment)
        grid = FrequencyGrid.log(1e5, 1e9, 400)
        assert [config.eqs_gain_db(f) for f in grid] == config.eqs_sweep(grid).gain_db().tolist()
