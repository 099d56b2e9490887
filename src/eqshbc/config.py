"""Key-value configuration files shared by the CLI and analysis modules.

Format: one ``key = value`` pair per line, ``#`` comments, dotted keys for
grouping. Values are JSON fragments (numbers, strings, booleans, lists),
so capacitances can be written as ``21e-12`` and anchor lists as
``[[1.0, 21e-12], [5.0, 6.6e-12]]``.

Documented keys
---------------
Channel:      c_g_tx, c_g_rx, c_body, r_b, r_s, load.kind, load.value,
              environment ("open_air"/"anechoic"), anechoic_boost,
              c_c, c_body2
Coupling:     coupling.anchors (list of [meters, farads]), coupling.d0
Multi-region: multiregion.em_height, multiregion.em_q,
              multiregion.em_ref_db, multiregion.device_length,
              multiregion.device_ref_db, multiregion.anechoic_em_attenuation_db
Interference: interferers (list of [volts, meters]), read by the sir command
Field decay:  fcc.anchor_field, fcc.anchor_distance, fcc.exponent

``load.kind`` and ``environment`` take strings, ``coupling.anchors`` and
``interferers`` lists of number pairs, and every other key a finite number
(``true``/``false`` are not numbers); a file breaking this is rejected.

Bare scenario names given to the CLI resolve against the directory in
``$EQSHBC_CONFIG_DIR`` first and then the bundled defaults (inter_body.cfg,
intra_body.cfg). The bundled ``inter_body.cfg`` is the one definition of
the pinned default scenario: ``multiregion.default_region_config`` reads it
straight from the package data.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from .bodychannel import (
    DEFAULT_COUPLING_D0,
    DEFAULT_COUPLING_MODEL,
    BodyChannelParams,
    CouplingCapModel,
    Environment,
    InterBodyParams,
    LoadSpec,
    fit_coupling_model,
)
from .fcc import DEFAULT_FIELD_MODEL, FieldDecayModel
from .multiregion import (
    ANECHOIC_EM_ATTENUATION_DB,
    DeviceModel,
    EmBodyModel,
    RegionConfig,
)

__all__ = [
    "CONFIG_DIR_ENV",
    "ConfigError",
    "body_params_from_config",
    "coupling_model_from_config",
    "field_model_from_config",
    "inter_params_from_config",
    "load_config",
    "parse_config",
    "region_config_from_config",
    "resolve_config_path",
]

CONFIG_DIR_ENV = "EQSHBC_CONFIG_DIR"
BUNDLED_CONFIGS = ("inter_body.cfg", "intra_body.cfg")


class ConfigError(ValueError):
    pass


# Config key -> dataclass field; absent keys keep the dataclass default.
_BODY_KEYS = {key: key for key in ("c_g_tx", "c_g_rx", "c_body", "r_b", "r_s", "anechoic_boost")}
_EM_KEYS = {"multiregion.em_height": "height", "multiregion.em_q": "q",
            "multiregion.em_ref_db": "ref_db"}
_DEVICE_KEYS = {"multiregion.device_length": "electrode_length",
                "multiregion.device_ref_db": "ref_db"}
_FIELD_KEYS = {f"fcc.{name}": name for name in ("anchor_field", "anchor_distance", "exponent")}


# The documented keys above; load_config rejects any other key (a typo, say).
_KNOWN_KEYS = frozenset((
    *_BODY_KEYS, *_EM_KEYS, *_DEVICE_KEYS, *_FIELD_KEYS,
    "load.kind", "load.value", "environment", "c_c", "c_body2",
    "coupling.anchors", "coupling.d0", "multiregion.anechoic_em_attenuation_db",
    "interferers",
))
# Each known key takes one kind of value; the keys named here are the
# non-numeric ones, every other key takes a finite real number.
_STRING_KEYS = frozenset(("load.kind", "environment"))
_PAIR_LIST_KEYS = frozenset(("coupling.anchors", "interferers"))


def _present(cfg: dict, keys: dict[str, str]) -> dict:
    return {name: cfg[key] for key, name in keys.items() if key in cfg}


def _finite(value) -> bool:
    """False if value holds NaN or an infinity (json reads NaN, Infinity and 1e400)."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(map(_finite, value))
    return True


def _is_real(value) -> bool:
    """A finite int or float; json reads true/false as bools, which Python counts as ints."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _value_kind_error(key: str, value) -> str | None:
    """What a known key's value should have been, or None when it is of the right kind."""
    if key in _STRING_KEYS:
        return None if isinstance(value, str) else "a string"
    if key in _PAIR_LIST_KEYS:
        pairs = isinstance(value, list) and all(
            isinstance(pair, list) and len(pair) == 2 and all(map(_is_real, pair))
            for pair in value)
        return None if pairs else "a list of [number, number] pairs"
    return None if _is_real(value) else "a finite number"


def parse_config(text: str) -> dict:
    """Parse config text into a flat {dotted-key: value} dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = json.loads(value.strip())
        except json.JSONDecodeError:
            raise ConfigError(
                f"line {lineno}: value for {key!r} is not a JSON fragment: "
                f"{value.strip()!r}") from None
        if not _finite(out[key]):
            raise ConfigError(f"line {lineno}: value for {key!r} is not finite: "
                              f"{value.strip()!r}")
    return out


def resolve_config_path(name: str) -> Path:
    """Resolve a scenario argument: explicit path, config dir, then bundled."""
    p = Path(name)
    if p.exists():
        return p
    env_dir = os.environ.get(CONFIG_DIR_ENV)
    if env_dir:
        candidate = Path(env_dir) / name
        if candidate.exists():
            return candidate
    if name in BUNDLED_CONFIGS:
        return _bundled_path(name)
    raise ConfigError(f"config {name!r} not found (cwd, ${CONFIG_DIR_ENV}, bundled)")


def _bundled_path(name: str) -> Path:
    return Path(str(resources.files("eqshbc.data").joinpath(name)))


def load_config(name: str) -> dict:
    """Parse a scenario file; an undocumented key (a typo, say) is an error."""
    return _read_config(resolve_config_path(name))


def _read_config(path: Path) -> dict:
    cfg = parse_config(path.read_text())
    unknown = sorted(set(cfg) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config key {unknown[0]!r}")
    for key, value in cfg.items():
        expected = _value_kind_error(key, value)
        if expected:
            raise ConfigError(f"{path}: config key {key!r} must be {expected}, "
                              f"got {json.dumps(value)}")
    return cfg


def body_params_from_config(cfg: dict, environment: str | None = None) -> BodyChannelParams:
    defaults = BodyChannelParams()
    changes = _present(cfg, _BODY_KEYS)
    if "load.kind" in cfg or "load.value" in cfg:
        changes["load"] = LoadSpec(cfg.get("load.kind", defaults.load.kind),
                                   cfg.get("load.value", defaults.load.value))
    changes["environment"] = environment or cfg.get("environment", defaults.environment)
    return replace(defaults, **changes)


def inter_params_from_config(cfg: dict, environment: str | None = None) -> InterBodyParams:
    if "c_c" not in cfg:
        raise ConfigError("inter-body scenario needs key 'c_c'")
    return InterBodyParams(base=body_params_from_config(cfg, environment),
                           c_c=cfg["c_c"], c_body2=cfg.get("c_body2"))


def coupling_model_from_config(cfg: dict) -> CouplingCapModel:
    if "coupling.anchors" not in cfg:
        return DEFAULT_COUPLING_MODEL
    return fit_coupling_model(cfg["coupling.anchors"], cfg.get("coupling.d0", DEFAULT_COUPLING_D0))


def region_config_from_config(cfg: dict, environment: str | None = None) -> RegionConfig:
    channel = inter_params_from_config(cfg, environment)
    em = EmBodyModel(**_present(cfg, _EM_KEYS))
    device = DeviceModel(**_present(cfg, _DEVICE_KEYS))
    if channel.base.environment is Environment.ANECHOIC:
        attn = cfg.get("multiregion.anechoic_em_attenuation_db", ANECHOIC_EM_ATTENUATION_DB)
        em = replace(em, ref_db=em.ref_db - attn)
        device = replace(device, ref_db=device.ref_db - attn)
    return RegionConfig(channel=channel, em=em, device=device)


def field_model_from_config(cfg: dict) -> FieldDecayModel:
    return replace(DEFAULT_FIELD_MODEL, **_present(cfg, _FIELD_KEYS))
