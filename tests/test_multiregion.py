import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqshbc import multiregion, solver
from eqshbc.bodychannel import Environment, _bisect_root
from eqshbc.cli import main
from eqshbc.config import load_config, region_config_from_config
from eqshbc.coupling import DEFAULT_COUPLING_MODEL
from eqshbc.multiregion import (
    DETECTION_DISTANCE_CAP_M,
    DEVICE_REF_OPEN_AIR_DB,
    EM_REF_OPEN_AIR_DB,
    CrossoverError,
    DeviceModel,
    EmBodyModel,
    RegionConfig,
    RegionLabel,
    _mechanism_table,
    body_em_pair_gain,
    classify_sweep,
    crossover_frequency,
    default_region_config,
    device_pair_gain,
    max_detection_distance,
    total_response,
)
from eqshbc.solver import FrequencyGrid


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

    @pytest.mark.parametrize("em_ref, device_ref, named", [
        (1e300, DEVICE_REF_OPEN_AIR_DB, "em ref_db"),
        (EM_REF_OPEN_AIR_DB, 1e300, "device ref_db"),
        (1e300, 1e300, "em ref_db or device ref_db"),
    ])
    def test_overflowing_reference_gain_names_its_key(self, em_ref, device_ref, named):
        config = default_region_config()
        with pytest.raises(ValueError, match=f"^summed mechanism power is out of the float "
                                             f"range; lower {named}$"):
            total_response(config.eqs_sweep(GRID), EmBodyModel(ref_db=em_ref),
                           DeviceModel(ref_db=device_ref))

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
        labels = classify_sweep(config, config.eqs_sweep(FrequencyGrid((500e3, 5e6, 50e6, 500e6))))
        assert labels == [RegionLabel.EQS, RegionLabel.EM_SMALL_MONOPOLE,
                          RegionLabel.EM_RESONANT, RegionLabel.DEVICE_COUPLING]

    def test_at_most_three_transitions(self):
        for env in (Environment.OPEN_AIR, Environment.ANECHOIC):
            config = default_region_config(env)
            labels = classify_sweep(config, config.eqs_sweep(FrequencyGrid.log(1e5, 1e9, 400)))
            transitions = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
            assert transitions <= 3

    def test_labels_come_in_frequency_order(self):
        order = [RegionLabel.EQS, RegionLabel.EM_SMALL_MONOPOLE,
                 RegionLabel.EM_RESONANT, RegionLabel.DEVICE_COUPLING]
        config = default_region_config()
        labels = classify_sweep(config, config.eqs_sweep(FrequencyGrid.log(1e5, 1e9, 400)))
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
        with pytest.raises(CrossoverError, match="^EM_SmallMonopole and EM_Resonant share a "
                                                 "mechanism; no gain crossover exists$"):
            crossover_frequency(default_region_config(), RegionLabel.EM_SMALL_MONOPOLE,
                                RegionLabel.EM_RESONANT)

    def test_non_adjacent_rejected(self):
        # a label given as the CLI's text is named as a member is
        with pytest.raises(CrossoverError,
                           match="^EQS and DeviceCoupling are not adjacent mechanisms$"):
            crossover_frequency(default_region_config(), "EQS", RegionLabel.DEVICE_COUPLING)

    def test_a_band_without_a_crossover_is_printed_by_repr(self):
        # a band of one part in 1e12, which the general format would print as [100000, 100000]
        f_hi = 1e5 * (1 + 1e-12)
        with pytest.raises(CrossoverError) as exc:
            crossover_frequency(default_region_config(), RegionLabel.EQS,
                                RegionLabel.EM_SMALL_MONOPOLE, 1e5, f_hi)
        assert str(exc.value) == (f"EQS and EM_SmallMonopole never exchange dominance in "
                                  f"[100000.0, {f_hi!r}] Hz")
        assert repr(f_hi) == "100000.00000010002"

    @pytest.mark.parametrize("end, f_hi", [(np.float64, math.nextafter(1e5, 2e5)),
                                           (np.float64, 2e5), (int, 2e5)])
    def test_band_ends_are_printed_as_python_floats(self, end, f_hi):
        # a band too narrow for the scan, and a band with no crossover
        args = (default_region_config(), RegionLabel.EM_RESONANT, RegionLabel.DEVICE_COUPLING)
        with pytest.raises(ValueError) as want:
            crossover_frequency(*args, 1e5, f_hi)
        with pytest.raises(ValueError) as got:
            crossover_frequency(*args, end(1e5), end(f_hi))
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

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


class TestCrossoverPairs:
    """All 16 ordered label pairs: a crossover is the same float in either label order."""

    @pytest.mark.parametrize("environment", list(Environment))
    @pytest.mark.parametrize("region_b", list(RegionLabel))
    @pytest.mark.parametrize("region_a", list(RegionLabel))
    def test_label_pair(self, environment, region_a, region_b):
        config = default_region_config(environment)
        mechanism = {RegionLabel.EQS: 0, RegionLabel.EM_SMALL_MONOPOLE: 1,
                     RegionLabel.EM_RESONANT: 1, RegionLabel.DEVICE_COUPLING: 2}
        pair = sorted((mechanism[region_a], mechanism[region_b]))
        if pair[0] == pair[1]:
            with pytest.raises(CrossoverError, match="share a mechanism"):
                crossover_frequency(config, region_a, region_b)
        elif pair == [0, 2]:
            with pytest.raises(CrossoverError, match="not adjacent mechanisms"):
                crossover_frequency(config, region_a, region_b)
        else:
            forward = ((RegionLabel.EQS, RegionLabel.EM_SMALL_MONOPOLE) if pair == [0, 1]
                       else (RegionLabel.EM_RESONANT, RegionLabel.DEVICE_COUPLING))
            want = crossover_frequency(config, *forward)
            assert crossover_frequency(config, region_a, region_b).hex() == want.hex()


# Both adjacent mechanism pairs, in both label orders
ORDERED_PAIRS = [(RegionLabel.EQS, RegionLabel.EM_SMALL_MONOPOLE),
                 (RegionLabel.EM_SMALL_MONOPOLE, RegionLabel.EQS),
                 (RegionLabel.EM_RESONANT, RegionLabel.DEVICE_COUPLING),
                 (RegionLabel.DEVICE_COUPLING, RegionLabel.EM_RESONANT)]
BASE_CFG = load_config("inter_body.cfg")
NUMERIC_KEYS = sorted(key for key, value in BASE_CFG.items() if isinstance(value, float))


@st.composite
def scaled_configs(draw):
    """inter_body.cfg with each number scaled in [0.9, 1.1], in either environment, with a
    capacitive or a resistive load (around 50 ohm)."""
    factor = st.floats(0.9, 1.1)
    cfg = {key: BASE_CFG[key] * draw(factor) for key in NUMERIC_KEYS}
    cfg["load.kind"] = draw(st.sampled_from(["capacitive", "resistive"]))
    if cfg["load.kind"] == "resistive":
        cfg["load.value"] = 50.0 * draw(factor)
    return region_config_from_config(cfg, draw(st.sampled_from(list(Environment))))


bands = st.tuples(st.floats(1e4, 1e6), st.floats(1e7, 1e10))


def reference_crossover(config_, region_a, region_b, f_lo, f_hi):
    """crossover_frequency as it was computed through the public sweep: each 81-point
    chunk of a fresh 241-point scan through ``eqs_sweep`` on its own FrequencyGrid, and
    each root-search step through ``eqs_gain_db``."""
    mechanism = {RegionLabel.EQS: 0, RegionLabel.EM_SMALL_MONOPOLE: 1,
                 RegionLabel.EM_RESONANT: 1, RegionLabel.DEVICE_COUPLING: 2}
    lower, upper = sorted((mechanism[region_a], mechanism[region_b]))
    scan = np.geomspace(f_lo, f_hi, 241)
    radiative_db = np.stack((body_em_pair_gain(config_.em, scan),
                             device_pair_gain(config_.device, scan)))
    gains = (config_.eqs_gain_db, lambda f: body_em_pair_gain(config_.em, f),
             lambda f: device_pair_gain(config_.device, f))
    step = 240 if lower else 80
    for start in range(0, 240, step):
        stop = start + step + 1
        chunk = scan[start:stop]
        lower_db = (radiative_db[0, start:stop] if lower
                    else config_.eqs_sweep(FrequencyGrid(chunk)).gain_db())
        sign = np.sign(radiative_db[upper - 1, start:stop] - lower_db)
        hits = np.flatnonzero((sign[:-1] == 0.0) | (sign[:-1] * sign[1:] < 0.0))
        if hits.size:
            i = hits[0]
            if sign[i] == 0.0:
                return float(chunk[i])
            lo, hi = chunk[i:i + 2].tolist()
            solved = {} if lower else dict(zip((lo, hi), lower_db[i:i + 2].tolist()))
            return _bisect_root(
                lambda f: gains[upper](f) - (solved[f] if f in solved else gains[lower](f)),
                lo, hi)
    raise CrossoverError(f"{region_a.value} and {region_b.value} never exchange dominance in "
                         f"[{f_lo!r}, {f_hi!r}] Hz")


class TestCrossoverFromTheKeptStamp:
    @settings(max_examples=30, deadline=None)
    @given(scaled_configs(), bands, bands)
    def test_matches_the_sweep_based_reference(self, config_, band, other):
        # band, another band, then the first again: the kept scan points and gains follow
        for f_lo, f_hi in (band, other, band):
            for region_a, region_b in ORDERED_PAIRS:
                try:
                    want = reference_crossover(config_, region_a, region_b, f_lo, f_hi)
                except ValueError as exc:
                    with pytest.raises(type(exc)) as got:
                        crossover_frequency(config_, region_a, region_b, f_lo, f_hi)
                    assert str(got.value) == str(exc)
                else:
                    assert crossover_frequency(config_, region_a, region_b, f_lo, f_hi) == want

    @pytest.mark.parametrize("region_a, region_b", ORDERED_PAIRS)
    def test_band_too_narrow_for_the_scan_is_refused_before_any_solve(
            self, solve_calls, region_a, region_b):
        f_hi = math.nextafter(1e5, 2e5)
        with pytest.raises(ValueError) as exc:
            crossover_frequency(default_region_config(), region_a, region_b, 1e5, f_hi)
        assert str(exc.value) == ("the band from f_lo = 100000.0 Hz to f_hi = "
                                  "100000.00000000001 Hz is too narrow for 241 strictly "
                                  "increasing scan points")
        assert type(exc.value) is ValueError and solve_calls == []

    def test_scan_points_are_built_once_per_band(self):
        one, other = default_region_config(), default_region_config(Environment.ANECHOIC)
        scan, _ = one._crossover_scan(1e5, 1e9)
        assert other._crossover_scan(1e5, 1e9)[0] is scan
        assert not scan.flags.writeable
        assert scan.tobytes() == np.geomspace(1e5, 1e9, 241).tobytes()
        assert one._crossover_scan(3e5, 3e6)[0] is not scan
        assert one._crossover_scan(1e5, 1e9)[0] is scan


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
        config = default_region_config()
        assert max_detection_distance(config, 40e6, -95.0) == DETECTION_DISTANCE_CAP_M
        assert max_detection_distance(config, 500e6, -95.0) == DETECTION_DISTANCE_CAP_M

    def test_monotone_in_sensitivity(self):
        config = default_region_config()
        ds = [max_detection_distance(config, 500e3, s) for s in (-80.0, -90.0, -95.0)]
        assert all(b > a for a, b in zip(ds, ds[1:]))

    def test_radiative_distance_falls_20db_per_decade(self):
        # at 5 MHz the EM mechanism dominates and the distance is below the cap
        config = default_region_config()
        near, far = (max_detection_distance(config, 5e6, s) for s in (-60.0, -80.0))
        assert near < far < DETECTION_DISTANCE_CAP_M
        assert far / near == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("floor, mechanism", [
        (-7000.0, "EM body pair"), (7000.0, "quasistatic"),
        (np.float64(-7000.0), "EM body pair"), (np.float64(7000.0), "quasistatic")])
    def test_overflowing_distance_names_the_gain_floor(self, floor, mechanism):
        # a float frequency is the math path, a numpy floor included; 10 ** (7000 / 20) overflows
        want = (f"^the gain floor of {floor:g} dB \\(min_gain_db, --sensitivity-db\\) lies too far "
                f"from the {mechanism} gain at 1 m: the detection distance overflows$")
        with pytest.raises(ValueError, match=want):
            max_detection_distance(default_region_config(), 1e6, floor)

    @pytest.mark.parametrize("floor, mechanism", [(-7000.0, "device"), (7000.0, "quasistatic")])
    def test_overflowing_distance_over_a_sweep_names_the_gain_floor(self, floor, mechanism):
        # the array path, as regions takes it: the device gain is the highest radiative one
        config = default_region_config()
        table = _mechanism_table(config.eqs_sweep(FrequencyGrid.log()), config.em, config.device)
        assert table[2].max() > table[1].max()
        want = (f"^the gain floor of {floor:g} dB \\(min_gain_db, --sensitivity-db\\) lies too far "
                f"from the {mechanism} gain at 1 m: the detection distance overflows$")
        with pytest.raises(ValueError, match=want):
            multiregion._detection_distance(table, floor, DEFAULT_COUPLING_MODEL)

    def test_quasistatic_gain_of_minus_inf_names_the_gain_floor(self):
        # c_g_rx = 1e-160 F rounds the in-chamber probe voltage to exactly 0 above 600 MHz
        chamber = default_region_config(Environment.ANECHOIC)
        base = replace(chamber.channel.base, c_g_rx=1e-160)
        deaf = RegionConfig(replace(chamber.channel, base=base), chamber.em, chamber.device)
        sweep = deaf.eqs_sweep(FrequencyGrid.log())
        f = float(sweep.freqs[sweep.gain_db() == -math.inf][0])
        assert deaf.eqs_gain_db(f) == -math.inf
        want = ("^the quasistatic gain of -inf dB at 1 m reaches the gain floor of -90 dB at no "
                "finite coupling capacitance$")
        with pytest.raises(ValueError, match=want):
            max_detection_distance(deaf, f, -90.0)
        table = _mechanism_table(sweep, deaf.em, deaf.device)  # the array path, as regions takes it
        with pytest.raises(ValueError, match=want):
            multiregion._detection_distance(table, -90.0, DEFAULT_COUPLING_MODEL)

    def test_deaf_receiver_detects_essentially_nowhere(self):
        # quasistatic path gives exactly 0; the far-field 1/d extrapolation
        # leaves a sub-millimeter residue
        config = default_region_config()
        assert max_detection_distance(config, 500e3, 20.0) < 1e-3


class TestCalibrationRegression:
    def test_open_air_plateau_at_minus_80(self):
        assert default_region_config().eqs_gain_db(500e3) == pytest.approx(-80.0, abs=0.05)


class TestSolveOnce:
    def test_classify_sweep_solves_each_point_once(self, solve_calls):
        config = default_region_config()
        grid = FrequencyGrid.log(1e5, 1e9, 60)
        labels = classify_sweep(config, config.eqs_sweep(grid))
        assert len(solve_calls) == len(grid)
        assert labels == [classify_sweep(config, config.eqs_sweep(FrequencyGrid((f,))))[0]
                          for f in grid]

    def test_cli_sweep_solves_each_point_once(self, solve_calls, tmp_path):
        assert main(["sweep", "--scenario", "inter_body.cfg", "--grid", "1e5:1e9:80",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert len(solve_calls) == 80

    @pytest.mark.parametrize("environment, measured", [("open_air", 10), ("anechoic", 11)])
    def test_eqs_to_em_crossover_solves(self, solve_calls, environment, measured):
        # the scan in 81-point sweeps up to the one holding the crossover (1 MHz
        # open air in the first, 10 MHz in the chamber in the second), then
        # single-point root-search steps (plain bisection took 50)
        chunks = {"open_air": 1, "anechoic": 2}[environment]
        crossover_frequency(default_region_config(environment), RegionLabel.EQS,
                            RegionLabel.EM_SMALL_MONOPOLE)
        batches = Counter(call for call, _ in solve_calls)
        assert [size for size in batches.values() if size > 1] == [81] * chunks
        assert len(solve_calls) - 81 * chunks <= measured + 2

    @pytest.mark.parametrize("environment", ["open_air", "anechoic"])
    def test_eqs_to_em_root_search_solves_no_scan_point(self, solve_calls, environment):
        # the bracket ends' quasistatic gains are read from the chunk's sweep
        crossover_frequency(default_region_config(environment), RegionLabel.EQS,
                            RegionLabel.EM_SMALL_MONOPOLE)
        batches = Counter(call for call, _ in solve_calls)
        scanned = {f for call, f in solve_calls if batches[call] > 1}
        steps = [f for call, f in solve_calls if batches[call] == 1]
        assert steps and scanned.isdisjoint(steps)

    def test_em_to_device_crossover_solves_nothing(self, solve_calls):
        f = crossover_frequency(default_region_config(), RegionLabel.EM_RESONANT,
                                RegionLabel.DEVICE_COUPLING)
        assert f == pytest.approx(150e6, rel=0.05)
        assert solve_calls == []

    def test_cli_regions_solves_grid_and_scan_once(self, solve_calls, tmp_path):
        # grid (n) + the EQS->EM crossover scan's first chunk (81) + its root
        # search (12 measured); the detection distances reuse the grid sweep
        n = 120
        out = tmp_path / "regions.json"
        assert main(["regions", "--grid", f"1e5:1e9:{n}", "--sensitivity-db", "-90",
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["max_detection_distance_m"]) == n
        assert len(solve_calls) <= n + 81 + 12
        batches = sorted(size for size in Counter(call for call, _ in solve_calls).values()
                         if size > 1)
        assert batches == [81, n]

    @pytest.fixture
    def shape_calls(self, monkeypatch):
        """(points, f_res) of each ndarray evaluation of a closed-form mechanism."""
        calls = []
        original = multiregion._resonant_shape_db

        def spy(f, f_res, q, keys):
            if isinstance(f, np.ndarray):
                calls.append((f.size, f_res))
            return original(f, f_res, q, keys)

        monkeypatch.setattr(multiregion, "_resonant_shape_db", spy)
        return calls

    @pytest.mark.parametrize("environment", ["open_air", "anechoic"])
    def test_cli_regions_evaluates_each_mechanism_once_per_grid_and_scan(
            self, shape_calls, environment, tmp_path):
        # labels and detection distances read one table over the grid, and
        # both crossovers one 241-point scan
        n = 120
        assert main(["regions", "--env", environment, "--grid", f"1e5:1e9:{n}",
                     "--sensitivity-db", "-90", "--out", str(tmp_path / "regions.json")]) == 0
        em, device = EmBodyModel().f_res, DeviceModel().f_res
        assert Counter(shape_calls) == {(n, em): 1, (n, device): 1, (241, em): 1, (241, device): 1}

    def test_cli_sweep_evaluates_each_mechanism_once(self, shape_calls, tmp_path):
        # the stitched response and the labels read one table
        assert main(["sweep", "--scenario", "inter_body.cfg", "--grid", "1e5:1e9:80",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert Counter(shape_calls) == {(80, EmBodyModel().f_res): 1, (80, DeviceModel().f_res): 1}

    def test_table_is_kept_per_pair_of_models(self):
        config = default_region_config()
        eqs = config.eqs_sweep(FrequencyGrid.log(1e5, 1e9, 50))
        table = _mechanism_table(eqs, config.em, config.device)
        assert _mechanism_table(eqs, config.em, config.device) is table
        assert not table.flags.writeable
        muted = EmBodyModel(ref_db=-math.inf)
        assert _mechanism_table(eqs, muted, config.device)[1].tolist() == [-math.inf] * 50
        assert np.array_equal(_mechanism_table(eqs, config.em, config.device), table)

    def test_crossover_scan_follows_the_band(self):
        # the scan kept for one band is not read for another
        config, fresh = default_region_config(), default_region_config()
        a, b = RegionLabel.EQS, RegionLabel.EM_SMALL_MONOPOLE
        wide = crossover_frequency(config, a, b)
        narrow = crossover_frequency(config, a, b, 3e5, 3e6)
        assert narrow == crossover_frequency(fresh, a, b, 3e5, 3e6)
        assert crossover_frequency(config, a, b) == wide == crossover_frequency(
            default_region_config(), a, b)

    @pytest.mark.parametrize("environment", ["open_air", "anechoic"])
    def test_scalar_and_sweep_gains_agree_bit_for_bit(self, environment):
        # 2.4 solver blocks of the 7-unknown circuit
        config = default_region_config(environment)
        grid = FrequencyGrid.log(1e5, 1e9, int(2.4 * (solver._BLOCK_ENTRIES // 7 ** 2)))
        assert [config.eqs_gain_db(f) for f in grid] == config.eqs_sweep(grid).gain_db().tolist()
