import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqshbc import cli
from eqshbc.cli import _MAX_GRID_POINTS, _build_parser, _json_text, _parse_grid, main
from eqshbc.config import parse_config
from eqshbc.solver import FrequencyGrid
from perfbench.golden import GOLDEN_DIR, cases

# A child process's environment: this checkout's sources first on the path.
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))}
RC_DIVIDER = str(resources.files("eqshbc.data").joinpath("rc_divider.cir"))
INTER_BODY_TEXT = (resources.files("eqshbc.data") / "inter_body.cfg").read_text()
# Keys that earlier versions accepted and then ignored; a config setting one is an error.
REMOVED_KEYS = ("snr_intended_db", "attacker_distance", "snr_threshold_db",
                "v_sig_user", "sir_min_db")


def scenario_with(line: str) -> str:
    """inter_body.cfg with each line of ``line`` in place of the line setting the same key."""
    keys = tuple(f"{row.split('=')[0].strip()} =" for row in line.splitlines())
    kept = [row for row in INTER_BODY_TEXT.splitlines() if not row.startswith(keys)]
    return "\n".join(kept + [line]) + "\n"


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
        code, out, _ = run(capsys, "solve", "--netlist", RC_DIVIDER, "--probe", "2,0",
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

    @pytest.mark.parametrize("load", ["capacitive", "capacitive:", "capacitive:abc",
                                      "resistive:1:2", ":50", "abc:50", "Resistive:50", "50"])
    def test_malformed_load_is_a_usage_error_naming_the_form(self, capsys, load):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--scenario", "inter_body.cfg", "--load", load])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"argument --load: load must be 'resistive:NUMBER' or 'capacitive:NUMBER', "
                f"got {load!r}") in captured.err


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

    def test_threshold_past_the_float_range_is_safe_at_contact(self, capsys):
        # 10^(1e4/20) overflows: no coupling reaches the threshold's capacitance
        code, out, err = run(capsys, "attack", "--snr", "0", "--distance", "1",
                             "--threshold", "10000")
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert record["feasible"] is False
        assert record["min_safe_distance_m"] == 0.0


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

    @pytest.mark.parametrize("v_sig, v_each, sir_min, users", [
        ("1e300", "1e-300", "0", 10 ** 6),  # the bound overflows to inf: the cap
        ("1", "1", "-1e4", 10 ** 6),  # the SIR floor's factor underflows to 0: the cap
        ("1", "1", "1e4", 0),  # the SIR floor's factor overflows: no user
    ])
    def test_capacity_past_the_float_range(self, capsys, v_sig, v_each, sir_min, users):
        code, out, err = run(capsys, "sir", "--v-sig", v_sig, "--v-each", v_each,
                             "--d-each", "1", f"--sir-min={sir_min}")
        assert (code, err) == (0, "")
        assert json.loads(out)["max_cochannel_users"] == users

    def test_no_mode_is_error(self, capsys):
        code, _, err = run(capsys, "sir", "--v-sig", "1.0")
        assert code == 1
        assert "interferer" in json.loads(err)["message"]

    @pytest.mark.parametrize("interferer", [[], ["--interferer", "1:1"]])
    @pytest.mark.parametrize("given", [("--v-each",), ("--d-each",), ("--sir-min",),
                                       ("--v-each", "--d-each"), ("--v-each", "--sir-min"),
                                       ("--d-each", "--sir-min")])
    def test_partial_capacity_flags_name_the_missing_ones(self, capsys, interferer, given):
        flags = ("--v-each", "--d-each", "--sir-min")
        argv = ["sir", "--v-sig", "1", *interferer, *(x for flag in given for x in (flag, "1"))]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.endswith("\n") and err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ValueError"
        missing = record["message"].partition("missing ")[2]
        assert missing == " and ".join(flag for flag in flags if flag not in given)

    def test_overflowing_sir_exits_1(self, capsys):
        # a 1e300 V link over a 1e-300 V interferer overflows the SIR to inf
        assert run(capsys, "sir", "--v-sig", "1e300", "--interferer", "1e-300:1") == (
            1, "", json.dumps({"error": "ValueError",
                               "message": "Out of range float values are not JSON compliant: inf"})
            + "\n")


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

    @pytest.mark.parametrize("argv", [["--freq", "1e5", "--grid", "1e5:1e6:3"],
                                      ["--grid", "1e5:1e6:3", "--freq", "1e5"],
                                      ["--config", "inter_body.cfg", "--freq", "1e5",
                                       "--grid", "1e5:1e6:3"]])
    def test_freq_and_grid_together_are_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["fcc", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument" in captured.err

    @pytest.mark.parametrize("lookup", [["--freq", "1e5"], ["--grid", "1e5:1e6:3"]])
    def test_config_goes_with_either(self, capsys, lookup):
        assert run(capsys, "fcc", "--config", "inter_body.cfg", *lookup)[0] == 0


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
        scenario = tmp_path / "bad.cfg"
        scenario.write_text(scenario_with(line))
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

    @pytest.mark.parametrize("line,message", [
        ("coupling.anchors = 3", "'coupling.anchors' must be a list of [number, number] pairs"),
        ('c_body = "abc"', "'c_body' must be a finite number"),
        ("c_body = true", "'c_body' must be a finite number"),
    ])
    def test_mistyped_config_value_is_one_json_error_line(self, capsys, tmp_path, line, message):
        config = tmp_path / "typed.cfg"
        config.write_text(line + "\n")
        for argv in (["attack", "--snr", "10", "--distance", "1", "--config", str(config)],
                     ["sir", "--v-sig", "1", "--interferer", "1:1", "--config", str(config)]):
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


class TestOverflowingCircuitValues:
    @pytest.mark.parametrize("command", ["sweep", "regions"])
    @pytest.mark.parametrize("key, label", [("c_g_tx", "CGTX"), ("c_g_rx", "CGRX"),
                                            ("c_body", "CBODY1"), ("c_body2", "CBODY2"),
                                            ("load.value", "CL")])
    def test_one_json_error_line_before_any_solve(self, tmp_path, command, key, label):
        # w*C leaves the float range at 1 GHz; in a fresh process, so that a
        # LAPACK message written straight to the stderr stream would be seen
        path = tmp_path / "big.cfg"
        path.write_text(scenario_with(f"{key} = 1e300"))
        result = subprocess.run([sys.executable, "-m", "eqshbc.cli", command,
                                 "--scenario", str(path)], capture_output=True, text=True,
                                env=SRC_ENV)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.count("\n") == 1
        record = json.loads(result.stderr)
        assert record["error"] == "ValueError"
        assert record["message"] == (f"element {label} (C = 1e+300) puts the MNA system out of "
                                     "the float range at f=1e+09 Hz")


class TestExtremeMultiregionValues:
    """Finite but extreme EM and device parameters put a resonant response
    outside the float range; that is a model error, not a numpy warning."""

    @pytest.mark.parametrize("line", [
        "multiregion.em_q = 1e-300",
        "multiregion.em_q = 1e300",
        "multiregion.em_height = 1e-300",
        "multiregion.em_height = 1e300",
        "multiregion.device_length = 1e-300",
        "multiregion.device_length = 1e300",
    ])
    def test_resonance_out_of_float_range_is_one_json_error_line(self, capsys, tmp_path, line):
        scenario = tmp_path / "extreme.cfg"
        scenario.write_text(scenario_with(line))
        for argv in (["sweep", "--scenario", str(scenario)],
                     ["regions", "--scenario", str(scenario)],
                     ["regions", "--scenario", str(scenario), "--sensitivity-db", "-90"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.count("\n") == 1
            record = json.loads(err)
            assert record["error"] == "ConfigError"
            assert "out of the float range" in record["message"]
            assert "config key 'multiregion." in record["message"]

    @pytest.mark.parametrize("value", ["1e300", "1e200"])
    @pytest.mark.parametrize("env", ["open_air", "anechoic"])
    @pytest.mark.parametrize("key", ["multiregion.em_ref_db", "multiregion.device_ref_db"])
    def test_overflowing_reference_gain_in_sweep(self, capsys, tmp_path, key, env, value):
        scenario = tmp_path / "extreme.cfg"
        scenario.write_text(scenario_with(f"{key} = {value}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sweep", "--scenario", str(scenario), "--env", env)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": f"summed mechanism power is out of the float range; lower config key {key!r}"}

    @pytest.mark.parametrize("lines, message", [
        # the chamber's 3145 dB take both radiative powers below the float range, and the
        # probe voltage across a 3798 F load rounds to 0 at 522 kHz: the sum has no dB
        ("load.value = 3798.0\nmultiregion.anechoic_em_attenuation_db = 3145.0",
         "summed mechanism power is 0 at f=522335 Hz"),
        # an ill-conditioned solve (cond ~1e19, warned) gives the quasistatic gain as 3.9e202:
        # its power overflows, not a reference gain's
        ("c_c = 4.8e-229\nc_body2 = 4.8e-229\nc_g_rx = 4.8e-229",
         "the quasistatic gain's power is out of the float range"),
    ])
    def test_a_power_sum_out_of_the_float_range_in_sweep(self, capsys, tmp_path, lines, message):
        scenario = tmp_path / "extreme.cfg"
        scenario.write_text(scenario_with(lines))
        code, out, err = run(capsys, "sweep", "--scenario", str(scenario), "--env", "anechoic",
                             "--grid", "1e5:1e9:40")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "ValueError", "message": message}

    def test_quasistatic_gain_of_minus_inf_names_the_gain_floor(self, capsys, tmp_path):
        # c_g_rx = 1e-160 F rounds the in-chamber probe voltage to exactly 0 above 600 MHz
        scenario = tmp_path / "deaf.cfg"
        scenario.write_text(scenario_with("c_g_rx = 1e-160"))
        code, out, err = run(capsys, "regions", "--scenario", str(scenario), "--env", "anechoic",
                             "--sensitivity-db", "-90")
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "the quasistatic gain of -inf dB at 1 m reaches the gain floor of "
                       "-90 dB at no finite coupling capacitance"}


# The argv before a config file: the closed-form commands that read c_body and coupling.*
CLOSED_FORM_ARGV = (["attack", "--snr", "10", "--distance", "1", "--config"],
                    ["sir", "--v-sig", "1", "--interferer", "1:1", "--config"])
# Scenario lines that a model refuses, and the message that names their keys.
SCENARIO_REFUSALS = [
    ("multiregion.em_height = 0.0",
     "config key 'multiregion.em_height' must be finite and > 0, got 0.0"),
    ("multiregion.em_q = -1.0",
     "config key 'multiregion.em_q' must be finite and > 0, got -1.0"),
    ("multiregion.device_length = 0.0",
     "config key 'multiregion.device_length' must be finite and > 0, got 0.0"),
    ('environment = "indoor"',
     "config key 'environment' must be 'open_air' or 'anechoic', got \"indoor\""),
    *((f"{key} = 0.0", f"config key {key!r} must be finite and > 0, got 0.0")
      for key in ("c_g_tx", "c_g_rx", "c_body", "r_b", "r_s", "anechoic_boost", "c_c", "c_body2")),
    ("c_c = 2e-10",
     "config key 'c_c' (2e-10) exceeds the receiving body's self capacitance (1.5e-10); the "
     "re-partition model requires config key 'c_c' <= config key 'c_body2'"),
]


class TestRefusedModelValues:
    """A scenario value that a model refuses names its config key."""

    @pytest.mark.parametrize("argv, line, message", [
        *(([command, "--scenario"], line, message)
          for line, message in SCENARIO_REFUSALS for command in ("sweep", "regions")),
        # the chamber lowers both references by the attenuation, which must not lift them
        *(([command, "--env", "anechoic", "--scenario"],
           "multiregion.em_ref_db = 1e308\nmultiregion.anechoic_em_attenuation_db = -1e308",
           "config key 'multiregion.anechoic_em_attenuation_db' must be finite and >= 0, "
           "got -1e+308") for command in ("sweep", "regions")),
        *((argv, "c_body = 0.0", "config key 'c_body' must be finite and > 0, got 0.0")
          for argv in CLOSED_FORM_ARGV),
    ])
    def test_a_scenario_value_names_its_key(self, capsys, tmp_path, argv, line, message):
        scenario = tmp_path / "refused.cfg"
        scenario.write_text(scenario_with(line))
        code, out, err = run(capsys, *argv, str(scenario))
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "ConfigError", "message": message}

    def test_the_env_flag_replaces_the_files_environment(self, capsys, tmp_path):
        scenario = tmp_path / "refused.cfg"
        scenario.write_text(scenario_with('environment = "indoor"'))
        code, _, err = run(capsys, "regions", "--scenario", str(scenario), "--env", "anechoic")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("key, value", [
        ("fcc.anchor_field", "0.0"), ("fcc.anchor_distance", "-0.1"), ("fcc.exponent", "-3.0")])
    def test_a_field_model_value_names_its_key(self, capsys, tmp_path, key, value):
        config = tmp_path / "field.cfg"
        config.write_text(f"{key} = {value}\n")
        code, out, err = run(capsys, "fcc", "--config", str(config))
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": f"config key {key!r} must be finite and > 0, got {value}"}

    @pytest.mark.parametrize("command", ["sweep", "regions"])
    @pytest.mark.parametrize("line, f_res, q, keys", [
        ("multiregion.em_height = 7.4e191", "1.01281e-184", "3",
         "config key 'multiregion.em_height' or config key 'multiregion.em_q'"),
        ("multiregion.device_length = 1e300", "7.49481e-293", "2",
         "config key 'multiregion.device_length'"),
    ])
    def test_a_resonance_out_of_the_float_range_names_its_keys(self, capsys, tmp_path, command,
                                                              line, f_res, q, keys):
        scenario = tmp_path / "extreme.cfg"
        scenario.write_text(scenario_with(line))
        code, out, err = run(capsys, command, "--scenario", str(scenario))
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": f"resonant response with f_res = {f_res} Hz and q = {q} is out of the "
                       f"float range in this band; change {keys}, or the band"}


# The numeric keys of the bundled inter-body scenario, and any finite value for them.
NUMERIC_KEYS = sorted(key for key, value in parse_config(INTER_BODY_TEXT).items()
                      if isinstance(value, (int, float)))
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def drawn_scenario(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn") / "drawn.cfg"


class TestAnyScenarioValue:
    """1-3 numeric keys of inter_body.cfg set to any finite floats, through sweep or regions."""

    @settings(max_examples=100, deadline=None)
    @given(values=st.dictionaries(st.sampled_from(NUMERIC_KEYS), FINITE, min_size=1, max_size=3),
           command=st.sampled_from(["sweep", "regions"]),
           env=st.sampled_from([None, "open_air", "anechoic"]),
           sensitivity=st.one_of(st.none(), FINITE))
    def test_finite_output_or_one_error_line_naming_a_drawn_key(self, drawn_scenario, values,
                                                                 command, env, sensitivity):
        drawn_scenario.write_text(scenario_with(
            "\n".join(f"{key} = {value!r}" for key, value in values.items())))
        argv = [command, "--scenario", str(drawn_scenario), "--grid", "1e5:1e9:40"]
        argv += ["--env", env] if env else []
        # "--flag=value", as argparse takes a value such as -1e4 for an option otherwise
        argv += [f"--sensitivity-db={sensitivity!r}"] if command == "regions" and sensitivity is not None else []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        if code == 0:
            assert err.getvalue() == ""
            assert not re.search(r"\b(nan|inf|infinity)\b", out.getvalue(), re.IGNORECASE)
            return
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue().count("\n") == 1
        message = json.loads(err.getvalue())["message"]
        # A refused value names its key, a drawn one. A refused relation between values
        # (c_c against c_body2, say) names every key in it, so one of them is drawn.
        named = set(re.findall(r"config key '([^']*)'", message))
        assert not named or named & set(values), message
        # A scenario parameter refused under its own name has no key in
        # config._PARAMETER_KEYS. Only "load value" stays so: the --load flag sets it too.
        # Element-level refusals (CGTX, ...) keep their element's label.
        assert not re.match(r"[a-z][\w ]* must be", message) or message.startswith("load value ")


class TestAdmittanceSpan:
    """A return capacitance of 1e200 F puts the element admittances past 1/u apart: the
    LU fails from rounding, and the error names the elements, not a node set."""

    @pytest.mark.parametrize("command, key, f, top, low", [
        ("sweep", "c_g_tx", "100000", "CGTX", "CGRX"),
        ("regions", "c_g_tx", "100000", "CGTX", "CGRX"),
        ("sweep", "c_g_rx", "104737", "CGRX", "CGTX"),
        ("regions", "c_g_rx", "104737", "CGRX", "CGTX"),
    ])
    def test_names_the_elements_of_largest_and_smallest_admittance(
            self, capsys, tmp_path, command, key, f, top, low):
        scenario = tmp_path / "wide.cfg"
        scenario.write_text(scenario_with(f"{key} = 1e200"))
        code, out, err = run(capsys, command, "--scenario", str(scenario))
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "AdmittanceSpanError",
            "message": f"element admittances at f={f} Hz span more than the float precision, "
                       f"from {top} (C = 1e+200) down to {low} (C = 3.86253e-13)"}


    def test_a_norm_out_of_the_float_range_warns_nothing(self, capsys, tmp_path):
        # 1/r_b = 9e307 S: the certificate's Frobenius norm of G overflows to inf, which
        # clears no point, so the SVD check finds the span
        scenario = tmp_path / "wide.cfg"
        scenario.write_text(scenario_with("r_b = 1.1125369292536007e-308"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sweep", "--scenario", str(scenario))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "AdmittanceSpanError"


class TestRemovedConfigKeys:
    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_is_one_json_error_line(self, capsys, tmp_path, key):
        scenario = tmp_path / "removed.cfg"
        scenario.write_text(scenario_with(f"{key} = 20"))
        for argv in (["attack", "--snr", "10", "--distance", "1", "--config", str(scenario)],
                     ["sir", "--v-sig", "1", "--interferer", "1:1", "--config", str(scenario)],
                     ["regions", "--scenario", str(scenario)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.count("\n") == 1
            assert json.loads(err) == {"error": "ConfigError",
                                       "message": f"{scenario}: unknown config key {key!r}"}


class TestArgumentErrors:
    def test_unknown_source_label_is_one_json_error_line(self, capsys):
        code, out, err = run(capsys, "solve", "--netlist", RC_DIVIDER, "--source", "VX",
                             "--probe", "2,0")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "KeyError",
                                   "message": "no voltage source labelled 'VX'"}

    @pytest.mark.parametrize("count", ["100000000000", "1000001lin", "99999999999999999999log"])
    def test_grid_over_the_point_cap_is_a_usage_error_before_spacing(self, capsys,
                                                                      monkeypatch, count):
        # no count this large can be allocated; the cap is checked before numpy is asked
        for name in ("geomspace", "linspace"):
            monkeypatch.setattr(np, name, lambda *args, name=name: pytest.fail(f"np.{name} called"))
        with pytest.raises(SystemExit) as exc:
            main(["regions", "--grid", f"1e5:1e9:{count}"])
        assert exc.value.code == 2
        assert f"at most {_MAX_GRID_POINTS} are allowed" in capsys.readouterr().err

    def test_grid_at_the_point_cap_is_built(self):
        assert len(_parse_grid(f"1e5:1e9:{_MAX_GRID_POINTS}lin")) == _MAX_GRID_POINTS

    @pytest.mark.parametrize("grid", ["20:-1:2log", "inf:1e9:5", "1e5:1e400:5log", "1e5:inf:5lin"])
    def test_grid_with_a_bad_end_is_a_usage_error_without_a_warning(self, capsys, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                main(["regions", "--grid", grid])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Warning" not in err
        assert f"got {grid!r}" in err


# Argument values that no command may turn into a traceback or a numpy warning.
ODD_TOKENS = ("nan", "inf", "-inf", "1e400", "1e300", "1e4", "-1e4", "-0", "0", "-1", "",
              "abc")


def numbers(*usual: str):
    """A usual value or an odd token, each about half the time."""
    return st.one_of(st.sampled_from(usual), st.sampled_from(ODD_TOKENS))


GRIDS = st.one_of(
    st.builds("{}:{}:{}{}".format, numbers("1e5", "2e6", "20"), numbers("3e7", "1e9"),
              st.sampled_from(("1", "2", "7", "30", "0", "-1", "abc")),
              st.sampled_from(("", "log", "lin"))),
    st.sampled_from(ODD_TOKENS))


@pytest.fixture(scope="module")
def config_files(tmp_path_factory):
    """(usable, faulty) config arguments: the bundled names and files of each kind of fault."""
    folder = tmp_path_factory.mktemp("configs")

    def write(name: str, line: str) -> str:
        path = folder / name
        path.write_text(scenario_with(line))
        return str(path)

    faults = ["c_c 21e-12", "c_gtx = 1e-9", 'c_body = "abc"', "load.kind = 3", "c_body = NaN",
              *(f"{key} = 20" for key in REMOVED_KEYS),
              # extreme but finite circuit values
              "c_body = 1e300", "c_g_tx = 1e300", "load.value = 1e-300", "r_b = 1e-300"]
    usable = ["inter_body.cfg", "intra_body.cfg", write("interferers.cfg", "interferers = [[0.5, 2.0]]")]
    faulty = [str(folder / "missing.cfg"),
              *(write(f"fault{k}.cfg", line) for k, line in enumerate(faults))]
    return usable, faulty


def grammar(usable: list[str], faulty: list[str]) -> dict:
    """Each subcommand's flags as (flag, values, fewest, most uses); --out is left out."""
    config = st.one_of(st.sampled_from(usable), st.sampled_from(faulty))
    env = st.sampled_from(("open_air", "anechoic", "abc"))
    return {
        "solve": [("--netlist", st.sampled_from((RC_DIVIDER, RC_DIVIDER, "/no/such/file.cir")), 1, 1),
                  ("--source", st.sampled_from(("V1", "VX", "R1", "", "abc")), 0, 1),
                  ("--probe", st.sampled_from(("2,0", "1,2", "9,0", "2,-1", "a,b", "", "2")), 1, 1),
                  ("--grid", GRIDS, 0, 1)],
        "sweep": [("--scenario", config, 1, 1), ("--env", env, 0, 1),
                  ("--load", st.builds("{}:{}".format, st.sampled_from(
                      ("resistive", "capacitive", "abc")), numbers("50", "1e-12")), 0, 1),
                  ("--grid", GRIDS, 0, 1)],
        "attack": [("--snr", numbers("10", "30"), 1, 1),
                   ("--distance", numbers("1", "0.5", "7"), 1, 1),
                   ("--threshold", numbers("6", "9"), 0, 1), ("--config", config, 0, 1)],
        "sir": [("--v-sig", numbers("1", "0.2"), 1, 1),
                ("--interferer", st.builds("{}:{}".format, numbers("1", "0.5"),
                                           numbers("1", "3")), 0, 2),
                ("--v-each", numbers("1"), 0, 1), ("--d-each", numbers("1", "2"), 0, 1),
                ("--sir-min", numbers("6", "-3"), 0, 1), ("--config", config, 0, 1)],
        "fcc": [("--freq", numbers("1e5", "2e7", "5e3"), 0, 1),
                ("--grid", GRIDS, 0, 1), ("--config", config, 0, 1)],
        "regions": [("--scenario", config, 0, 1), ("--env", env, 0, 1), ("--grid", GRIDS, 0, 1),
                    ("--sensitivity-db", numbers("-95", "-60"), 0, 1)],
    }


def _reject_constant(literal: str):
    raise ValueError(f"non-finite JSON number {literal}")


class TestArgvFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exit_code_and_output_for_any_argv(self, config_files, data):
        flags = grammar(*config_files)
        command = data.draw(st.sampled_from(sorted(flags)))
        argv = [command]
        for flag, values, fewest, most in flags[command]:
            for _ in range(data.draw(st.integers(fewest, most))):
                value = data.draw(values)
                # "--flag=value" lets a value such as -1e4 through, which argparse
                # would otherwise take for an option
                argv += [f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2
                return
        if code == 1:
            record = json.loads(err.getvalue().splitlines()[-1])
            assert set(record) == {"error", "message"}
        else:
            assert code == 0
            text = out.getvalue()
            if not text.startswith("freq_hz,"):
                json.loads(text, parse_constant=_reject_constant)


class TestGridSpec:
    def test_spacing_suffixes(self):
        assert _parse_grid("1e5:1e6:10lin") == FrequencyGrid.linear(1e5, 1e6, 10)
        assert _parse_grid("1e5:1e6:10log") == FrequencyGrid.log(1e5, 1e6, 10)
        assert _parse_grid("1e5:1e6:10") == FrequencyGrid.log(1e5, 1e6, 10)


class TestParserGrids:
    @pytest.fixture
    def grids_built(self, monkeypatch):
        built = []
        log = FrequencyGrid.log.__func__
        monkeypatch.setattr(FrequencyGrid, "log",
                            classmethod(lambda cls, *args: built.append(args) or log(cls, *args)))
        return built

    def test_unused_grid_defaults_are_not_built(self, capsys, grids_built):
        assert run(capsys, "attack", "--snr", "10", "--distance", "1")[0] == 0
        assert grids_built == []

    def test_single_frequency_fcc_builds_no_grid(self, capsys, grids_built):
        assert run(capsys, "fcc", "--freq", "5e5") == (
            0, (GOLDEN_DIR / "fcc-freq.json").read_text(), "")
        assert grids_built == []

    def test_given_grid_replaces_the_default(self, capsys, grids_built):
        assert run(capsys, "fcc", "--grid", "1e5:1e6:5")[0] == 0
        assert grids_built == [(1e5, 1e6, 5)]

    def test_absent_grid_takes_the_default(self, capsys, grids_built):
        assert run(capsys, "fcc")[0] == 0
        assert grids_built == [(1e5, 1e6, 25)]


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


class TestParserBuiltOnce:
    def test_one_parser_serves_successive_commands(self, capsys):
        golden = cases()
        regions, sweep = golden["regions-open_air.json"], golden["sweep-open_air-capacitive.csv"]
        assert run(capsys, *regions) == (0, (GOLDEN_DIR / "regions-open_air.json").read_text(), "")
        with pytest.raises(SystemExit) as exc:
            main(["regions", "--grid", "1e5:1e9"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *sweep) == (
            0, (GOLDEN_DIR / "sweep-open_air-capacitive.csv").read_text(), "")
        assert run(capsys, *regions) == (0, (GOLDEN_DIR / "regions-open_air.json").read_text(), "")
        assert _build_parser() is _build_parser()


def reference_round9(obj):
    """Every float of a nested record rounded to 9 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: reference_round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_round9(v) for v in obj]
    return obj


EDGE_VALUES = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
               1e16, 1.2345678951e16, 9.999999995e22, 1.7976931348623157e308,
               math.nan, math.inf, -math.inf,
               # where the layout of the 9-digit text changes
               999999999.5, -1e9, 123456789012.0, 1e15, 9.9999999951e15, 9.99999999951e-05, 1e-4]
EDGE_FLOATS = st.sampled_from(EDGE_VALUES)
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f%\u00e9\u2028\U0001f600'),
                              st.characters()), max_size=8)
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), EDGE_FLOATS,
                         st.floats(min_value=1e16), st.floats(-1e-300, 1e-300), JSON_TEXT)


def same_keyed_rows(values):
    """Lists of dicts that share one drawn set of keys, as the emitter's row layout takes."""
    def rows(keys):
        # each row in its own key order: the layout goes by the sorted keys
        row = st.fixed_dictionaries(dict.fromkeys(keys, values)).flatmap(
            lambda d: st.permutations(list(d.items())).map(dict))
        return st.lists(row, min_size=1, max_size=4)

    return st.lists(st.one_of(JSON_TEXT, st.sampled_from(("%s", "%%", "freq_hz"))),
                    min_size=1, max_size=3, unique=True).flatmap(rows)


JSON_RECORDS = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(JSON_TEXT, children, max_size=4),
                               same_keyed_rows(children)),
    max_leaves=25)


def assert_emitted_as_json_dumps(record, dumped):
    """_json_text(record) is json.dumps(dumped, ...), or raises json's ValueError with its text."""
    try:
        want = json.dumps(dumped, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _json_text(record)
        assert str(got.value) == str(exc)
    else:
        assert _json_text(record) == want


class TestJsonEmitter:
    @settings(max_examples=300, deadline=None)
    @given(JSON_RECORDS)
    def test_bytes_are_json_dumps_of_the_rounded_record(self, record):
        assert_emitted_as_json_dumps(record, reference_round9(record))

    @pytest.mark.parametrize("x", EDGE_VALUES)
    def test_each_edge_float(self, x):
        record = [x, {"x": x}]
        assert_emitted_as_json_dumps(record, reference_round9(record))

    @pytest.mark.parametrize("x", EDGE_VALUES + [0.1234567891234, math.pi * 1e12, -1 / 3])
    def test_round9_that_does_not_round_writes_unrounded_bytes(self, monkeypatch, x):
        # _round9 is the one rounding step: without it the record's own floats come out
        monkeypatch.setattr(cli, "_round9", lambda obj: obj)
        record = [x, {"x": x}]
        assert_emitted_as_json_dumps(record, record)

    def test_non_finite_value_in_a_record_exits_1_with_one_json_line(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "fcc_limit", lambda f: (math.inf, 3.0))
        assert run(capsys, "fcc", "--freq", "1e6") == (1, "", json.dumps({
            "error": "ValueError",
            "message": "Out of range float values are not JSON compliant: inf"}) + "\n")
