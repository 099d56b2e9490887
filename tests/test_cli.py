import json
from importlib import resources

import pytest

from eqshbc.cli import _parse_grid, main
from eqshbc.solver import FrequencyGrid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_netlist_sweep_csv(self, capsys, tmp_path):
        netlist = tmp_path / "rc.cir"
        netlist.write_text("V1 1 0 1.0\nR1 1 2 1k\nC1 2 0 1n\n")
        out = tmp_path / "sweep.csv"
        code = main(["solve", "--netlist", str(netlist), "--probe", "2,0",
                     "--grid", "1e4:1e7:50", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "freq_hz,gain_re,gain_im,gain_db,phase_deg"
        assert len(lines) == 51

    def test_bundled_divider_netlist(self, capsys):
        path = str(resources.files("eqshbc.data").joinpath("rc_divider.cir"))
        code, out, _ = run(capsys, "solve", "--netlist", path, "--probe", "2,0",
                           "--grid", "1.59155e5:2e5:1")
        assert code == 0
        first_row = out.strip().splitlines()[1].split(",")
        assert float(first_row[3]) == pytest.approx(-3.01, abs=0.01)

    def test_missing_netlist_is_model_error(self, capsys):
        code, _, err = run(capsys, "solve", "--netlist", "/no/such/file",
                           "--probe", "2,0")
        assert code == 1
        record = json.loads(err)
        assert "message" in record

    def test_bad_netlist_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.cir"
        bad.write_text("V1 1 0 1.0\nR1 1 1 50\n")
        code, _, err = run(capsys, "solve", "--netlist", str(bad), "--probe", "1,0")
        assert code == 1
        assert "identical nodes" in json.loads(err)["message"]


class TestSweep:
    def test_csv_with_region_column(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--scenario", "inter_body.cfg",
                     "--grid", "1e5:1e9:200log", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "freq_hz,gain_re,gain_im,gain_db,phase_deg,region"
        assert len(lines) == 201
        assert lines[1].endswith(",EQS")
        assert lines[-1].endswith(",DeviceCoupling")

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["sweep", "--scenario", "inter_body.cfg",
                         "--grid", "1e5:1e9:40", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_and_load_overrides(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--scenario", "inter_body.cfg", "--env", "anechoic",
                     "--load", "resistive:50", "--grid", "1e5:1e6:10", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        gains = [float(r.split(",")[3]) for r in rows]
        assert all(b > a for a, b in zip(gains, gains[1:]))  # resistive load rises


class TestAttack:
    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "attack", "--snr", "10", "--distance", "1.0")
        assert code == 0
        record = json.loads(out)
        assert record["snooper_snr_db"] == pytest.approx(-7.0774, abs=1e-3)
        assert record["feasible"] is False

    def test_threshold_flag(self, capsys):
        code, out, _ = run(capsys, "attack", "--snr", "30", "--distance", "1.0",
                           "--threshold", "9")
        record = json.loads(out)
        assert record["feasible"] is True
        assert record["snr_threshold_db"] == 9.0

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "attack", "--snr", "10", "--distance", "1.0")
        _, second, _ = run(capsys, "attack", "--snr", "10", "--distance", "1.0")
        assert first == second


class TestSir:
    def test_interferer_list(self, capsys):
        code, out, _ = run(capsys, "sir", "--v-sig", "1.0", "--interferer", "1.0:1.0")
        assert code == 0
        assert json.loads(out)["sir_db"] == pytest.approx(17.0774, abs=1e-3)

    def test_capacity_mode(self, capsys):
        code, out, _ = run(capsys, "sir", "--v-sig", "1.0", "--v-each", "1.0",
                           "--d-each", "1.0", "--sir-min", "6.0")
        assert code == 0
        assert json.loads(out)["max_cochannel_users"] == 3

    def test_no_mode_is_error(self, capsys):
        code, _, err = run(capsys, "sir", "--v-sig", "1.0")
        assert code == 1
        assert "interferer" in json.loads(err)["message"]


class TestFcc:
    def test_limit_lookup(self, capsys):
        code, out, _ = run(capsys, "fcc", "--freq", "1e5")
        assert code == 0
        record = json.loads(out)
        assert record["limit_uv_per_m"] == 24.0
        assert record["distance_m"] == 300.0

    def test_compliance_report(self, capsys):
        code, out, _ = run(capsys, "fcc", "--grid", "1e5:1e6:10")
        assert code == 0
        record = json.loads(out)
        assert record["compliant"] is True
        assert len(record["rows"]) == 10

    def test_below_table_is_model_error(self, capsys):
        code, _, err = run(capsys, "fcc", "--freq", "1e3")
        assert code == 1
        assert "9 kHz" in json.loads(err)["message"]


class TestRegions:
    def test_region_map(self, capsys):
        code, out, _ = run(capsys, "regions", "--grid", "1e5:1e9:100")
        assert code == 0
        record = json.loads(out)
        labels = [seg["region"] for seg in record["segments"]]
        assert labels == ["EQS", "EM_SmallMonopole", "EM_Resonant", "DeviceCoupling"]
        assert 0.5e6 <= record["crossovers"]["eqs_to_em_hz"] <= 2e6
        assert record["crossovers"]["em_to_device_hz"] == pytest.approx(150e6, rel=0.05)

    def test_anechoic_crossover_shift(self, capsys):
        code, out, _ = run(capsys, "regions", "--env", "anechoic", "--grid", "1e5:1e9:100")
        record = json.loads(out)
        assert 5e6 <= record["crossovers"]["eqs_to_em_hz"] <= 20e6

    def test_detection_distance_trend(self, capsys):
        code, out, _ = run(capsys, "regions", "--grid", "1e5:1e9:30",
                           "--sensitivity-db", "-95")
        assert code == 0
        rows = json.loads(out)["max_detection_distance_m"]
        assert len(rows) == 30
        assert rows[-1]["distance_m"] > rows[0]["distance_m"]


class TestNonFiniteArguments:
    @pytest.mark.parametrize("argv", [
        ["attack", "--snr", "30", "--distance", "nan"],
        ["attack", "--snr", "nan", "--distance", "1.0"],
        ["attack", "--snr", "30", "--distance", "1.0", "--threshold", "inf"],
        ["sir", "--v-sig", "1", "--interferer", "nan:1"],
        ["sir", "--v-sig", "1", "--interferer", "1:inf"],
        ["sir", "--v-sig", "inf", "--v-each", "1", "--d-each", "1", "--sir-min", "6"],
        ["fcc", "--freq", "nan"],
        ["fcc", "--freq", "inf"],
    ])
    def test_model_error_without_traceback(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.endswith("\n") and err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert "finite" in record["message"]


class TestScenarioValidation:
    @pytest.mark.parametrize("line,message", [
        ("c_g_tx = NaN", "'c_g_tx' is not finite"),
        ("c_c = Infinity", "'c_c' is not finite"),
        ("c_body = 1e400", "'c_body' is not finite"),
        ("c_gtx = 1e-9", "unknown config key 'c_gtx'"),
    ])
    def test_bad_scenario_is_one_json_error_line(self, capsys, tmp_path, line, message):
        text = (resources.files("eqshbc.data") / "inter_body.cfg").read_text()
        key = line.split(" = ")[0]
        kept = [row for row in text.splitlines() if not row.startswith(f"{key} =")]
        scenario = tmp_path / "bad.cfg"
        scenario.write_text("\n".join(kept + [line]) + "\n")
        for argv in (["sweep", "--scenario", str(scenario)],
                     ["regions", "--scenario", str(scenario)]):
            code, out, err = run(capsys, *argv)
            assert code == 1
            assert out == ""
            assert "Traceback" not in err
            assert err.endswith("\n") and err.count("\n") == 1
            record = json.loads(err)
            assert record["error"] == "ConfigError"
            assert message in record["message"]

    @pytest.mark.parametrize("load", ["capacitive:nan", "resistive:inf"])
    def test_non_finite_load_override(self, capsys, load):
        code, out, err = run(capsys, "sweep", "--scenario", "inter_body.cfg", "--load", load)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err and err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert "load value must be finite" in record["message"]

    def test_overflowing_netlist_value(self, capsys, tmp_path):
        netlist = tmp_path / "big.cir"
        netlist.write_text("V1 1 0 1\nR1 1 2 1e400\nC1 2 0 1n\n")
        code, out, err = run(capsys, "solve", "--netlist", str(netlist), "--probe", "2,0")
        assert code == 1
        assert out == ""
        assert "Traceback" not in err and err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "NetlistError"
        assert "line 2" in record["message"] and "finite" in record["message"]


class TestGridSpec:
    def test_spacing_suffixes(self):
        assert _parse_grid("1e5:1e6:10lin") == FrequencyGrid.linear(1e5, 1e6, 10)
        assert _parse_grid("1e5:1e6:10log") == FrequencyGrid.log(1e5, 1e6, 10)
        assert _parse_grid("1e5:1e6:10") == FrequencyGrid.log(1e5, 1e6, 10)


class TestUsageErrors:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--snr", "10", "--distance", "1", "--bogus"])
        assert exc.value.code == 2

    def test_malformed_grid_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["fcc", "--grid", "nonsense"])
        assert exc.value.code == 2
