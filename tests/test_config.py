import ast
import inspect
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqshbc.bodychannel import Environment
from eqshbc import bodychannel, coupling, fcc, multiregion, netlist, risk, solver
from eqshbc.cli import main
from eqshbc.config import (
    _KNOWN_KEYS,
    _PARAMETER_KEYS,
    ConfigError,
    _keyed,
    body_params_from_config,
    coupling_model_from_config,
    field_model_from_config,
    inter_params_from_config,
    load_config,
    parse_config,
    region_config_from_config,
    resolve_config_path,
)
from eqshbc.bodychannel import (
    ANECHOIC_RETURN_BOOST,
    BodyChannelParams,
    calibrate_anechoic_boost,
    calibrate_return_scale,
)
from eqshbc.coupling import DEFAULT_COUPLING_ANCHORS, DEFAULT_COUPLING_D0
from eqshbc.fcc import DEFAULT_FIELD_MODEL
from eqshbc.netlist import ParameterError
from eqshbc.multiregion import (
    ANECHOIC_EM_ATTENUATION_DB,
    DEVICE_REF_OPEN_AIR_DB,
    EM_REF_OPEN_AIR_DB,
    DeviceModel,
    EmBodyModel,
    calibrate_device_reference,
    calibrate_em_reference,
    default_region_config,
)


class TestParse:
    def test_values_are_json_fragments(self):
        cfg = parse_config('a = 1.5e-12\nb = "text"\nc = [[1.0, 2.0]]\nd = true')
        assert cfg == {"a": 1.5e-12, "b": "text", "c": [[1.0, 2.0]], "d": True}

    def test_comments_and_blanks(self):
        cfg = parse_config("# heading\n\nkey = 3  # trailing\n")
        assert cfg == {"key": 3}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some text")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("a = 1\na = 2")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("a = not-json")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400",
                                         "[[1.0, 21e-12], [5.0, NaN]]"])
    def test_non_finite_value_names_key(self, literal):
        with pytest.raises(ConfigError, match="line 2: value for 'c_g_tx' is not finite"):
            parse_config(f"c_c = 21e-12\nc_g_tx = {literal}")


    @pytest.mark.parametrize("value", ["9" * 5000, "[[1.0, " + "9" * 5000 + "]]"])
    def test_integer_past_the_digit_limit_names_key(self, value):
        # int() refuses integers of more than sys.get_int_max_str_digits() digits
        with pytest.raises(ConfigError, match=r"line 2: value for 'c_g_tx' has an integer of "
                                              r"more than \d+ digits"):
            parse_config(f"c_c = 21e-12\nc_g_tx = {value}")

    def test_deeply_nested_value_names_key(self):
        with pytest.raises(ConfigError, match="line 1: value for 'interferers' is nested too deeply"):
            parse_config("interferers = " + "[" * 100_000)

    @pytest.mark.parametrize("value", ["9" * 5000, "[[1.0, " + "9" * 5000 + "]]", "[" * 100_000])
    def test_unreadable_value_exits_1_with_one_json_line(self, capsys, tmp_path, value):
        path = tmp_path / "scenario.cfg"
        path.write_text(f"c_c = 21e-12\nc_g_tx = {value}\n")
        assert main(["regions", "--scenario", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "ConfigError"
        assert json.loads(line)["message"].startswith("line 2: value for 'c_g_tx' ")


# json's number grammar at its edges, the literals json reads that are not
# finite, and digits that Python's int() and float() take but json does not
NUMBER_EDGES = ["0", "-0", "-0.0", "0.0", "01", "-01", "1.", ".5", "+1", "1_0", "1e400", "-1e400",
                "1e-400", "1E+2", "1e", "1.e5", "NaN", "Infinity", "-Infinity", "nan", "inf",
                "1\u0663", "0.\u0663", "1e\u0663", "\uff11", "0x10", "- 1", "2.5e-12", "", "1 2"]


def read_by_json(value: str):
    """A config value as one json.loads of it reads it: the value, or parse_config's error."""
    try:
        loaded = json.loads(value)
    except json.JSONDecodeError:
        return f"line 1: value for 'k' is not a JSON fragment: {value!r}"
    if isinstance(loaded, float) and not math.isfinite(loaded):
        return f"line 1: value for 'k' is not finite: {value!r}"
    return loaded


class TestNumbersAsJsonReadsThem:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.sampled_from(NUMBER_EDGES),
                     st.from_regex(r"-?(?:0|[1-9]\d*)(\.\d+)?([eE][-+]?\d+)?", fullmatch=True),
                     st.floats().map(repr), st.integers().map(str),
                     st.text("0123456789+-.eE_ \u0663\uff11", max_size=12)))
    def test_each_value_is_what_json_loads_reads(self, value):
        want = read_by_json(value.strip())
        try:
            got = parse_config(f"k = {value}")["k"]
        except ConfigError as exc:
            got = str(exc)
        # repr tells int from float and -0.0 from 0.0
        assert (type(got), repr(got)) == (type(want), repr(want))


class TestResolution:
    def test_explicit_path(self, tmp_path):
        p = tmp_path / "x.cfg"
        p.write_text("c_c = 21e-12\n")
        assert resolve_config_path(str(p)) == p

    def test_env_dir(self, tmp_path, monkeypatch):
        (tmp_path / "mine.cfg").write_text("c_c = 5e-12\n")
        monkeypatch.setenv("EQSHBC_CONFIG_DIR", str(tmp_path))
        cfg = load_config("mine.cfg")
        assert cfg["c_c"] == 5e-12

    def test_env_dir_set_after_a_bundled_read_wins(self, tmp_path, monkeypatch):
        # the bundled directory is found once; the lookup order is kept on every read
        monkeypatch.delenv("EQSHBC_CONFIG_DIR", raising=False)
        assert load_config("inter_body.cfg")["c_body"] == 150e-12
        (tmp_path / "inter_body.cfg").write_text("c_c = 5e-12\nc_body = 90e-12\n")
        monkeypatch.setenv("EQSHBC_CONFIG_DIR", str(tmp_path))
        assert resolve_config_path("inter_body.cfg") == tmp_path / "inter_body.cfg"
        assert load_config("inter_body.cfg") == {"c_c": 5e-12, "c_body": 90e-12}
        monkeypatch.delenv("EQSHBC_CONFIG_DIR")
        assert load_config("inter_body.cfg")["c_body"] == 150e-12

    def test_bundled_names(self):
        for name in ("inter_body.cfg", "intra_body.cfg"):
            cfg = load_config(name)
            assert cfg["c_body"] == 150e-12

    def test_bundled_configs_load_without_error(self):
        # every key the bundled scenarios (and the generated variants of them) use is known
        for name in ("inter_body.cfg", "intra_body.cfg"):
            assert load_config(name)

    def test_unknown_key_rejected_by_name(self, tmp_path):
        p = tmp_path / "typo.cfg"
        p.write_text("c_c = 21e-12\nc_gtx = 1e-9\n")
        with pytest.raises(ConfigError, match="unknown config key 'c_gtx'"):
            load_config(str(p))

    @pytest.mark.parametrize("line,expected", [
        ("c_c = true", "'c_c' must be a finite number, got true"),
        ('c_c = "21e-12"', "'c_c' must be a finite number"),
        ("c_c = [21e-12]", "'c_c' must be a finite number"),
        ("c_c = " + "9" * 400, "'c_c' must be a finite number"),
        ("load.kind = 1", "'load.kind' must be a string"),
        ("environment = null", "'environment' must be a string"),
        ("coupling.anchors = 3", "'coupling.anchors' must be a list of [number, number] pairs"),
        ("coupling.anchors = [[1.0, 21e-12], [5.0]]", "'coupling.anchors' must be a list"),
        ("interferers = [[1.0, true]]", "'interferers' must be a list of [number, number] pairs"),
        ('interferers = [["1", 1.0]]', "'interferers' must be a list"),
    ])
    def test_value_of_the_wrong_kind_rejected_by_key(self, tmp_path, line, expected):
        p = tmp_path / "typed.cfg"
        p.write_text(line + "\n")
        with pytest.raises(ConfigError, match=re.escape(expected)):
            load_config(str(p))

    def test_values_of_the_right_kind_accepted(self, tmp_path):
        p = tmp_path / "typed.cfg"
        p.write_text('c_c = 21\nload.kind = "resistive"\ninterferers = []\n'
                     "coupling.anchors = [[1, 2e-11], [5.0, 6e-12]]\n")
        assert load_config(str(p))["c_c"] == 21

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="not found"):
            resolve_config_path("no_such_scenario.cfg")


class TestBuilders:
    def test_body_params_defaults_when_empty(self):
        params = body_params_from_config({})
        assert params.c_g_tx == 0.6e-12
        assert params.load.kind == "capacitive"

    def test_body_params_overrides(self):
        cfg = parse_config('c_g_tx = 1e-12\nload.kind = "resistive"\nload.value = 50.0\n'
                           'environment = "anechoic"')
        params = body_params_from_config(cfg)
        assert params.c_g_tx == 1e-12
        assert params.load.kind == "resistive"
        assert params.environment is Environment.ANECHOIC

    def test_environment_argument_wins(self):
        params = body_params_from_config({"environment": "anechoic"}, environment="open_air")
        assert params.environment is Environment.OPEN_AIR

    def test_inter_params_require_cc(self):
        with pytest.raises(ConfigError, match="c_c"):
            inter_params_from_config({})

    def test_coupling_model_from_anchors(self):
        cfg = {"coupling.anchors": [[1.0, 21e-12], [5.0, 6.6e-12]], "coupling.d0": 0.2}
        model = coupling_model_from_config(cfg)
        assert model.cap_at(1.0) == pytest.approx(21e-12, rel=1e-9)

    def test_coupling_model_defaults(self):
        model = coupling_model_from_config({})
        assert model.cap_at(5.0) == pytest.approx(6.6e-12, rel=1e-9)

    def test_absent_keys_keep_dataclass_defaults(self):
        assert body_params_from_config({}) == BodyChannelParams()
        config = region_config_from_config({"c_c": 21e-12})
        assert config.em == EmBodyModel()
        assert config.device == DeviceModel()
        model = coupling_model_from_config({"coupling.anchors": [[1.0, 21e-12], [5.0, 6.6e-12]]})
        assert model.d0 == DEFAULT_COUPLING_D0

    def test_multiregion_keys_override_models(self):
        cfg = {"c_c": 21e-12, "multiregion.em_height": 1.6, "multiregion.em_q": 2.5,
               "multiregion.em_ref_db": 1.0, "multiregion.device_length": 0.04,
               "multiregion.device_ref_db": 2.0, "multiregion.anechoic_em_attenuation_db": 5.0}
        config = region_config_from_config(cfg, environment="anechoic")
        assert config.em == EmBodyModel(height=1.6, q=2.5, ref_db=1.0 - 5.0)
        assert config.device == DeviceModel(electrode_length=0.04, ref_db=2.0 - 5.0)

    def test_field_model(self):
        assert field_model_from_config({}) == DEFAULT_FIELD_MODEL
        model = field_model_from_config({"fcc.anchor_field": 0.1, "fcc.exponent": 2.0})
        assert model.anchor_field == 0.1
        assert model.exponent == 2.0


class TestBundledScenario:
    def test_inter_body_cfg_matches_default_region_config(self):
        cfg = load_config("inter_body.cfg")
        from_cfg = region_config_from_config(cfg)
        reference = default_region_config()
        for f in (5e5, 5e6, 5e7, 5e8):
            assert from_cfg.eqs_gain_db(f) == pytest.approx(reference.eqs_gain_db(f), abs=1e-6)
        assert from_cfg.em.ref_db == pytest.approx(reference.em.ref_db, abs=1e-4)
        assert from_cfg.device.ref_db == pytest.approx(reference.device.ref_db, abs=1e-4)

    @pytest.mark.parametrize("environment", ["open_air", "anechoic"])
    def test_default_region_config_is_the_bundled_file(self, environment):
        from_cfg = region_config_from_config(load_config("inter_body.cfg"), environment)
        assert default_region_config(environment) == from_cfg

    def test_inter_body_cfg_pins_equal_the_code_constants(self):
        # The references and coupling anchors live both in the file and in the
        # code defaults; recalibrating one copy alone must fail here.
        cfg = load_config("inter_body.cfg")
        assert cfg["multiregion.em_ref_db"] == EM_REF_OPEN_AIR_DB
        assert cfg["multiregion.device_ref_db"] == DEVICE_REF_OPEN_AIR_DB
        assert cfg["multiregion.anechoic_em_attenuation_db"] == ANECHOIC_EM_ATTENUATION_DB
        assert tuple(map(tuple, cfg["coupling.anchors"])) == DEFAULT_COUPLING_ANCHORS
        assert cfg["coupling.d0"] == DEFAULT_COUPLING_D0
        assert cfg["c_g_rx"] == cfg["c_g_tx"]

    @pytest.mark.parametrize("pinned, recompute", [
        pytest.param(lambda cfg: EM_REF_OPEN_AIR_DB,
                     lambda cfg: calibrate_em_reference(default_region_config(), 1e6),
                     id="EM_REF_OPEN_AIR_DB"),
        pytest.param(lambda cfg: ANECHOIC_EM_ATTENUATION_DB,
                     lambda cfg: EM_REF_OPEN_AIR_DB - calibrate_em_reference(
                         default_region_config("anechoic"), 10e6),
                     id="ANECHOIC_EM_ATTENUATION_DB"),
        pytest.param(lambda cfg: DEVICE_REF_OPEN_AIR_DB,
                     lambda cfg: calibrate_device_reference(
                         default_region_config().em, default_region_config().device, 150e6),
                     id="DEVICE_REF_OPEN_AIR_DB"),
        pytest.param(lambda cfg: ANECHOIC_RETURN_BOOST, lambda cfg: calibrate_anechoic_boost(),
                     id="ANECHOIC_RETURN_BOOST"),
        # the file's c_g_tx and c_g_rx are 0.6 pF times the 7-digit scale
        pytest.param(lambda cfg: cfg["c_g_tx"] / 0.6e-12,
                     lambda cfg: calibrate_return_scale(80.0, c_c=21e-12),
                     id="inter_body.cfg return scale"),
        pytest.param(lambda cfg: cfg["anechoic_boost"],
                     lambda cfg: calibrate_anechoic_boost(
                         params=BodyChannelParams(c_g_tx=cfg["c_g_tx"], c_g_rx=cfg["c_g_rx"])),
                     id="inter_body.cfg anechoic_boost"),
    ])
    def test_a_pinned_constant_recomputes_to_its_printed_digits(self, pinned, recompute):
        cfg = load_config("inter_body.cfg")
        value = pinned(cfg)
        digits = len(repr(value).partition(".")[2])
        assert round(recompute(cfg), digits) == value

    def test_intra_body_cfg_is_the_code_defaults(self):
        assert body_params_from_config(load_config("intra_body.cfg")) == BodyChannelParams()

    def test_anechoic_override_applies_attenuation(self):
        cfg = load_config("inter_body.cfg")
        chamber = region_config_from_config(cfg, environment="anechoic")
        reference = default_region_config("anechoic")
        assert chamber.em.ref_db == pytest.approx(reference.em.ref_db, abs=1e-4)
        assert chamber.eqs_gain_db(5e5) == pytest.approx(-70.0, abs=0.05)


def _perturbed(key: str, value):
    """A different value of the same kind for ``key``."""
    if key == "coupling.anchors":
        return [[d, 1.5 * c] for d, c in value]  # scale the anchor capacitances
    if key == "interferers":
        return [[1.5 * v, d] for v, d in value]
    if isinstance(value, str):
        return {"capacitive": "resistive", "open_air": "anechoic"}[value]
    return 1.5 * value


class TestCollapsedCouplingFit:
    # d0 = 1e200 puts both default anchors at one u = 1/(d + d0): the fit has no line
    @pytest.mark.parametrize("argv", [
        ["attack", "--snr", "10", "--distance", "1", "--config"],
        ["sir", "--v-sig", "1", "--interferer", "0.5:2", "--config"],
        ["regions", "--sensitivity-db", "-95", "--scenario"],
    ], ids=["attack", "sir", "regions"])
    def test_cli_names_the_coupling_keys(self, capsys, tmp_path, argv):
        path = tmp_path / "collapsed.cfg"
        cfg = {**load_config("inter_body.cfg"), "coupling.d0": 1e200}
        path.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in cfg.items()))
        assert main([*argv, str(path)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "ConfigError", "message": (
            "'coupling.anchors' and 'coupling.d0' fit no coupling model: "
            "anchor distances must be distinct")}


class TestEveryKeyIsRead:
    @pytest.mark.parametrize("key", sorted(_KNOWN_KEYS))
    def test_changing_the_key_changes_what_is_read(self, capsys, tmp_path, key):
        # inter_body.cfg sets every known key but interferers, which sir reads
        base = {**load_config("inter_body.cfg"), "interferers": [[0.5, 2.0]]}
        if key in ("anechoic_boost", "multiregion.anechoic_em_attenuation_db"):
            base["environment"] = "anechoic"  # both act in the chamber only
        assert key in base, f"{key!r} is a known key with no value here to perturb"
        readings = []
        for cfg in (base, {**base, key: _perturbed(key, base[key])}):
            path = tmp_path / "scenario.cfg"
            path.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in cfg.items()))
            if key == "interferers":
                assert main(["sir", "--v-sig", "1", "--config", str(path)]) == 0
                readings.append(capsys.readouterr().out)
            else:
                cfg = load_config(str(path))
                readings.append((region_config_from_config(cfg), coupling_model_from_config(cfg),
                                 field_model_from_config(cfg)))
        assert readings[0] != readings[1]

    def test_coupling_d0_without_anchors_is_read(self, capsys, tmp_path):
        # d0 alone refits the default anchors with it
        path = tmp_path / "d0.cfg"
        path.write_text("coupling.d0 = 0.5\n")
        readings = []
        for config in ([], ["--config", str(path)]):
            assert main(["attack", "--snr", "10", "--distance", "1", *config]) == 0
            readings.append(json.loads(capsys.readouterr().out)["min_safe_distance_m"])
        assert readings[0] != readings[1]


class TestKeyedRefusals:
    """config._keyed names the config key of each parameter a refusal names."""

    def test_a_refusal_of_mapped_parameters_names_their_keys(self):
        error = ParameterError("{} ({x}) exceeds {}", "c_c", "c_body2", x="{not a field}")
        assert str(error) == "c_c ({not a field}) exceeds c_body2"
        keyed = _keyed(error)
        assert type(keyed) is ConfigError
        assert str(keyed) == "config key 'c_c' ({not a field}) exceeds config key 'c_body2'"

    def test_a_refusal_naming_an_unmapped_parameter_keeps_its_message(self):
        # load.* stays unmapped: the --load flag writes the same key
        for error in (ParameterError("{} must be finite, got nan", "load value"),
                      ParameterError("{} is below {}", "c_body", "frequency")):
            keyed = _keyed(error)
            assert (type(keyed), str(keyed)) == (ValueError, str(error))

    def test_any_other_error_is_returned_as_it_is(self):
        for error in (ConfigError("c_body"), ValueError("c_body must be"), KeyError("c_c")):
            assert _keyed(error) is error

    def test_every_mapped_key_is_a_known_key(self):
        assert set(_PARAMETER_KEYS.values()) <= _KNOWN_KEYS

    @pytest.mark.parametrize("cfg, name", [
        ({"c_c": 21e-12, "environment": "indoor"}, "environment"),
        ({"c_c": 21e-12, "multiregion.em_q": 0.0}, "q"),
        ({"c_c": 21e-12, "multiregion.em_ref_db": math.inf}, "em ref_db"),
        ({"c_c": 21e-12, "multiregion.device_ref_db": math.nan}, "device ref_db"),
        ({"c_c": 2e-10}, "c_c"),
    ])
    def test_the_builders_raise_the_parameters_refusal(self, cfg, name):
        with pytest.raises(ParameterError) as raised:
            region_config_from_config(cfg)
        assert raised.value.names[0] == name


# The modules that model the physics; config and cli alone know the config keys.
PHYSICS_MODULES = (netlist, solver, bodychannel, multiregion, coupling, fcc, risk)


@pytest.mark.parametrize("module", PHYSICS_MODULES, ids=lambda module: module.__name__)
def test_a_physics_module_holds_no_config_key(module):
    dotted = sorted(key for key in _KNOWN_KEYS if "." in key)
    tree = ast.parse(inspect.getsource(module))
    held = {(node.lineno, key) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for key in dotted if key in node.value}
    assert not held
