import json
import re

import pytest

from eqshbc.bodychannel import Environment
from eqshbc.cli import main
from eqshbc.config import (
    _KNOWN_KEYS,
    ConfigError,
    body_params_from_config,
    coupling_model_from_config,
    field_model_from_config,
    inter_params_from_config,
    load_config,
    parse_config,
    region_config_from_config,
    resolve_config_path,
)
from eqshbc.bodychannel import DEFAULT_COUPLING_ANCHORS, DEFAULT_COUPLING_D0, BodyChannelParams
from eqshbc.fcc import DEFAULT_FIELD_MODEL
from eqshbc.multiregion import (
    ANECHOIC_EM_ATTENUATION_DB,
    DEVICE_REF_OPEN_AIR_DB,
    EM_REF_OPEN_AIR_DB,
    DeviceModel,
    EmBodyModel,
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
