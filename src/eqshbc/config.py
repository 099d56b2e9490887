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

A value that a model refuses names its key as well. The models raise a
``netlist.ParameterError`` naming their own parameters; ``_keyed``, which
the CLI applies to every error at its one ``except``, makes it a
ConfigError naming each parameter's key from ``_PARAMETER_KEYS``. A
refused relation between values (c_c above c_body2, a resonance out of the
float range, in the chamber a c_g_tx or c_g_rx whose product with
anechoic_boost is not finite) names every key in it. These keep their own
messages: load.* (the --load flag writes the same key), element-level
errors (a label such as CGTX, ``AdmittanceSpanError``) and the coupling
fit's ConfigError, which names coupling.anchors and coupling.d0. The
builders below raise the model's ParameterError, naming the parameter, not
the key. In the chamber multiregion.anechoic_em_attenuation_db must be
finite and >= 0: it lowers both references, never raises them. A
reference gain may be any finite number: ``sweep`` refuses one whose
summed power leaves the float range, and ``regions`` never sums powers.

A scenario name given to the CLI is tried as a path first (a relative one
from the working directory), then in the directory in ``$EQSHBC_CONFIG_DIR``,
then among the bundled defaults (inter_body.cfg, intra_body.cfg). The
bundled ``inter_body.cfg`` is the one definition of the pinned default
scenario: ``multiregion.default_region_config`` reads it straight from the
package data.

Reading a config needs no numpy; the three builders of circuit parameters
import ``bodychannel`` and ``multiregion`` inside their functions.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import replace
from importlib import resources
from json.scanner import NUMBER_RE
from pathlib import Path
from typing import TYPE_CHECKING

from .coupling import (
    DEFAULT_COUPLING_ANCHORS,
    DEFAULT_COUPLING_D0,
    DEFAULT_COUPLING_MODEL,
    CouplingCapModel,
    fit_coupling_model,
)
from .fcc import DEFAULT_FIELD_MODEL, FieldDecayModel
from .netlist import ParameterError, _require_non_negative

if TYPE_CHECKING:
    from .bodychannel import BodyChannelParams, InterBodyParams
    from .multiregion import RegionConfig

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
# Parameter name -> the config key that sets it, for naming a refused value (see _keyed).
_PARAMETER_KEYS = {name: key for key, name in (*_BODY_KEYS.items(), *_FIELD_KEYS.items())} | {
    "c_c": "c_c", "c_body2": "c_body2", "environment": "environment", "q": "multiregion.em_q",
    "height": "multiregion.em_height", "em ref_db": "multiregion.em_ref_db",
    "electrode_length": "multiregion.device_length", "device ref_db": "multiregion.device_ref_db",
    "anechoic_em_attenuation_db": "multiregion.anechoic_em_attenuation_db"}


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


def _keyed(exc: Exception) -> Exception:
    """The error to report for ``exc``, with the config key of each parameter it names.

    A ParameterError whose parameters all have a key in _PARAMETER_KEYS
    becomes a ConfigError that names each as ``config key '<key>'``; any
    other ParameterError becomes a ValueError with its own message. Every
    other exception is returned as it is.
    """
    if isinstance(exc, ParameterError) and set(exc.names) <= _PARAMETER_KEYS.keys():
        keys = [f"config key {_PARAMETER_KEYS[name]!r}" for name in exc.names]
        return ConfigError(exc.template.format(*keys, **exc.values))
    return ValueError(str(exc)) if isinstance(exc, ParameterError) else exc


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
    """Parse config text into a flat {dotted-key: value} dict.

    A value that is a JSON number is read as json reads it, without a
    json.loads call; every other value goes through json.loads.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, equals, value = line.partition("=")
        if not equals:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        value = value.strip()
        number = NUMBER_RE.fullmatch(value)
        try:
            if number is not None and value.isascii():
                # a number, built as json's scanner builds it (the pattern's \d also
                # takes non-ASCII digits, which the scanner refuses)
                integer, frac, exp = number.groups()
                parsed = float(value) if frac or exp else int(integer)
                finite = isinstance(parsed, int) or math.isfinite(parsed)
            else:
                parsed = json.loads(value)
                finite = _finite(parsed)
        except json.JSONDecodeError:
            raise ConfigError(
                f"line {lineno}: value for {key!r} is not a JSON fragment: {value!r}") from None
        except ValueError:  # int's limit on the digits it converts
            raise ConfigError(f"line {lineno}: value for {key!r} has an integer of more than "
                              f"{sys.get_int_max_str_digits()} digits") from None
        except RecursionError:
            raise ConfigError(f"line {lineno}: value for {key!r} is nested too deeply") from None
        if not finite:
            raise ConfigError(f"line {lineno}: value for {key!r} is not finite: {value!r}")
        out[key] = parsed
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
    return Path(str(resources.files("eqshbc") / "data" / name))


def load_config(name: str) -> dict:
    """Parse a scenario file; an undocumented key (a typo, say) is an error."""
    try:
        file = open(name)  # a name that opens is the file resolve_config_path returns
    except (OSError, ValueError):
        return _read_config(resolve_config_path(name))
    with file:
        return _checked_config(file.read(), name)


def _read_config(path: Path) -> dict:
    return _checked_config(path.read_text(), path)


def _checked_config(text: str, path: str | Path) -> dict:
    """The config in text, each key known and of its kind; an error prints path as Path does."""
    cfg = parse_config(text)
    unknown = cfg.keys() - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"{Path(path)}: unknown config key {min(unknown)!r}")
    for key, value in cfg.items():
        # parse_config refused every non-finite float, so a float is a number key's kind
        if type(value) is float and key not in _STRING_KEYS and key not in _PAIR_LIST_KEYS:
            continue
        expected = _value_kind_error(key, value)
        if expected:
            raise ConfigError(f"{Path(path)}: config key {key!r} must be {expected}, "
                              f"got {json.dumps(value)}")
    return cfg


def body_params_from_config(cfg: dict, environment: str | None = None) -> BodyChannelParams:
    """The channel of the config's keys; ``environment``, if given, replaces the file's own."""
    from .bodychannel import BodyChannelParams, LoadSpec

    defaults = BodyChannelParams()
    changes = _present(cfg, _BODY_KEYS)
    if "load.kind" in cfg or "load.value" in cfg:
        changes["load"] = LoadSpec(cfg.get("load.kind", defaults.load.kind),
                                   cfg.get("load.value", defaults.load.value))
    changes["environment"] = environment or cfg.get("environment", defaults.environment)
    return replace(defaults, **changes)


def inter_params_from_config(cfg: dict, environment: str | None = None) -> InterBodyParams:
    from .bodychannel import InterBodyParams

    if "c_c" not in cfg:
        raise ConfigError("inter-body scenario needs key 'c_c'")
    return InterBodyParams(base=body_params_from_config(cfg, environment),
                           c_c=cfg["c_c"], c_body2=cfg.get("c_body2"))


def coupling_model_from_config(cfg: dict) -> CouplingCapModel:
    """C_C(d) fitted to the config's anchors and d0, each defaulted on its own.

    A fit that fails, a collapsed one say, raises ConfigError naming both keys.
    """
    if "coupling.anchors" not in cfg and "coupling.d0" not in cfg:
        return DEFAULT_COUPLING_MODEL  # the same fit, made once at import
    try:
        return fit_coupling_model(cfg.get("coupling.anchors", DEFAULT_COUPLING_ANCHORS),
                                  cfg.get("coupling.d0", DEFAULT_COUPLING_D0))
    except ValueError as exc:
        raise ConfigError(
            f"'coupling.anchors' and 'coupling.d0' fit no coupling model: {exc}") from exc


def region_config_from_config(cfg: dict, environment: str | None = None) -> RegionConfig:
    from . import bodychannel, multiregion

    channel = inter_params_from_config(cfg, environment)
    em = multiregion.EmBodyModel(**_present(cfg, _EM_KEYS))
    device = multiregion.DeviceModel(**_present(cfg, _DEVICE_KEYS))
    if channel.base.environment is bodychannel.Environment.ANECHOIC:
        attn = cfg.get("multiregion.anechoic_em_attenuation_db",
                       multiregion.ANECHOIC_EM_ATTENUATION_DB)
        _require_non_negative("anechoic_em_attenuation_db", attn)  # lowers, never raises, a gain
        em = replace(em, ref_db=em.ref_db - attn)
        device = replace(device, ref_db=device.ref_db - attn)
    return multiregion.RegionConfig(channel=channel, em=em, device=device)


def field_model_from_config(cfg: dict) -> FieldDecayModel:
    return replace(DEFAULT_FIELD_MODEL, **_present(cfg, _FIELD_KEYS))
