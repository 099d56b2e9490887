import contextlib
import io
import json
import warnings
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqshbc.cli import _build_parser, _parse_grid, main
from eqshbc.solver import FrequencyGrid
from perfbench.golden import GOLDEN_DIR, cases

RC_DIVIDER = str(resources.files("eqshbc.data").joinpath("rc_divider.cir"))
INTER_BODY_TEXT = (resources.files("eqshbc.data") / "inter_body.cfg").read_text()
# Keys that earlier versions accepted and then ignored; a config setting one is an error.
REMOVED_KEYS = ("snr_intended_db", "attacker_distance", "snr_threshold_db",
                "v_sig_user", "sir_min_db")


def scenario_with(line: str) -> str:
    """inter_body.cfg with ``line`` in place of the line setting the same key."""
    key = line.split("=")[0].strip()
    kept = [row for row in INTER_BODY_TEXT.splitlines() if not row.startswith(f"{key} =")]
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
ODD_TOKENS = ("nan", "inf", "-inf", "1e400", "-0", "0", "-1", "", "abc")


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
              *(f"{key} = 20" for key in REMOVED_KEYS)]
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
                argv += [flag, data.draw(values)]
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
