"""Command-line front end: sweeps and analyses to CSV/JSON.

Output is deterministic: stable ordering, floats forced through 9
significant digits, so repeated runs with identical inputs are
byte-identical. JSON is laid out as ``json.dumps(..., sort_keys=True,
indent=2)`` lays it out, each float as the repr of its 9-digit rounding,
written from the ``.9g`` text without parsing it again (see
``_float_text``). Exit codes: 0 success, 1 model/solver error (with a
machine-readable JSON line on stderr), 2 usage error.

The closed-form commands, attack, sir and fcc --freq, load no numpy: the
circuit commands import the solver and the multi-region layer inside
their functions, as ``_parse_grid`` does for the grids.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import TYPE_CHECKING

from . import config as cfgmod
from .coupling import DEFAULT_C_BODY
from .fcc import fcc_limit, is_unintentional_radiator
from .netlist import parse_netlist
from .risk import (
    AttackScenario,
    InterferenceScenario,
    attack_report,
    max_cochannel_users,
    sir_db,
)

if TYPE_CHECKING:
    from .solver import FrequencyGrid

__all__ = ["main"]

# The band grid that solve, sweep and regions take when --grid is absent.
_BAND_GRID = "1e5:1e9:200"
# The grid of an fcc report without --grid; parsed only for the report, not for --freq.
_FCC_GRID = "1e5:1e6:25"
# Most points a --grid may ask for, checked before any array is allocated.
_MAX_GRID_POINTS = 10**6
# The smallest normal double; below it a float has fewer than 9 digits of precision.
_FLOAT_MIN = sys.float_info.min


def _parse_grid(spec: str) -> FrequencyGrid:
    from .solver import FrequencyGrid

    try:
        start, stop, count = spec.split(":")
        build = FrequencyGrid.linear if count.endswith("lin") else FrequencyGrid.log
        n = int(count[:-3]) if count[-3:] in ("lin", "log") else int(count)
        if n <= _MAX_GRID_POINTS:
            return build(float(start), float(stop), n)
    except (ValueError, TypeError):
        raise argparse.ArgumentTypeError(
            f"grid must be 'start:stop:N[log|lin]', got {spec!r}") from None
    raise argparse.ArgumentTypeError(
        f"grid has {n} points; at most {_MAX_GRID_POINTS} are allowed")


def _parse_probe(spec: str) -> tuple[int, int]:
    try:
        a, b = spec.split(",")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"probe must be 'node+,node-', got {spec!r}") from None


def _parse_pair(spec: str) -> tuple[float, float]:
    try:
        v, d = spec.split(":")
        return float(v), float(d)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'volts:meters', got {spec!r}") from None


def _parse_load(spec: str) -> tuple[str, float]:
    kind, _, value = spec.partition(":")
    try:
        if kind in ("resistive", "capacitive"):
            return kind, float(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"load must be 'resistive:NUMBER' or 'capacitive:NUMBER', got {spec!r}")


def _round9(x: float) -> str:
    """x rounded to 9 significant digits, as its ``.9g`` text."""
    return f"{x:.9g}"


def _float_text(x: float) -> str:
    """repr of x rounded to 9 significant digits, laid out from the ``_round9`` text.

    For a normal double the rounded value's repr has exactly the digits of
    that text, since two decimals of at most 9 digits lie more than an ulp
    apart; only the layout differs, and repr is positional from 1e-4 up to
    1e16. A subnormal value has fewer digits of precision, so it takes the
    round trip through float. The f-string keeps ``_round9``'s text as it
    is, and would write a float there as its repr, so a ``_round9`` that
    does not round makes this repr(x).
    """
    return _float_layout(x, f"{_round9(x)}")


def _float_layout(x: float, text: str) -> str:
    """The JSON text of x from its ``_round9`` text; see ``_float_text``."""
    if "e" in text:
        mantissa, _, exponent = text.partition("e")
        e = int(exponent)
        if 9 <= e <= 15:
            digits = mantissa.replace(".", "")
            return digits.ljust(e + 1 + (x < 0.0), "0") + ".0"
        if -_FLOAT_MIN < x < _FLOAT_MIN:
            return float.__repr__(float(text))
        return text
    if "." in text:
        return text
    if "n" in text:  # inf, -inf or nan
        raise ValueError("Out of range float values are not JSON compliant: " + text)
    return text + ".0"


def _json_object(members: list[str], indent: str) -> str:
    """The ``"key": value`` members as a JSON object that starts on a line at indent."""
    inner = indent + "  "
    return "{" + inner + ("," + inner).join(members) + indent + "}"


def _json_items(items, indent: str) -> str:
    """The items of a non-empty list as JSON, each on a line starting with indent.

    Dicts with the same keys share one row layout, built once per list and
    filled in by one % over all rows; their floats are laid out in place.
    """
    first = items[0]
    keys = first.keys() if isinstance(first, dict) else None
    if keys and all([isinstance(item, dict) and item.keys() == keys for item in items]):
        keys = sorted(keys)
        inner = indent + "  "
        row = _json_object([_json_str(k).replace("%", "%%") + ": %s" for k in keys], indent)
        texts = [_float_layout(v, f"{_round9(v)}") if type(v) is float else _json_text(v, inner)
                 for item in items for v in map(item.__getitem__, keys)]
        return ("," + indent).join([row] * len(items)) % tuple(texts)
    return ("," + indent).join([_json_text(item, indent) for item in items])


def _json_text(obj, indent: str = "\n") -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) writes it,
    after rounding each float to 9 significant digits; dict keys are str.

    ``indent`` is a newline plus the indentation of the line obj starts
    on. A NaN or infinity raises json's ValueError.
    """
    if isinstance(obj, float):
        return _float_text(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return _json_object(
            [_json_str(k) + ": " + _json_text(obj[k], inner) for k in sorted(obj)], indent)
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + _json_items(obj, inner) + indent + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(record: dict, out: str | None) -> None:
    _emit(_json_text(record) + "\n", out)


def _load_scenario(args) -> dict:
    return cfgmod.load_config(args.config) if args.config else {}


def _cmd_solve(args) -> None:
    from .solver import sweep_csv, transfer

    netlist = parse_netlist(Path(args.netlist).read_text())
    result = transfer(netlist, args.source, args.probe, args.grid)
    _emit(sweep_csv(result), args.out)


def _cmd_sweep(args) -> None:
    from . import multiregion, solver

    cfg = cfgmod.load_config(args.scenario)
    if args.load:
        cfg["load.kind"], cfg["load.value"] = args.load
    region_config = cfgmod.region_config_from_config(cfg, args.env)
    eqs = region_config.eqs_sweep(args.grid)
    total = multiregion.total_response(eqs, region_config.em, region_config.device)
    labels = [label.value for label in multiregion.classify_sweep(region_config, eqs)]
    _emit(solver.sweep_csv(total, regions=labels), args.out)


def _cmd_attack(args) -> None:
    cfg = _load_scenario(args)
    scenario = AttackScenario(
        snr_intended_db=args.snr,
        attacker_distance=args.distance,
        snr_threshold_db=args.threshold,
        coupling=cfgmod.coupling_model_from_config(cfg),
        c_body=cfg.get("c_body", DEFAULT_C_BODY),
    )
    _emit_json(attack_report(scenario), args.out)


def _cmd_sir(args) -> None:
    capacity = {"--v-each": args.v_each, "--d-each": args.d_each, "--sir-min": args.sir_min}
    missing = [flag for flag, value in capacity.items() if value is None]
    if 0 < len(missing) < 3:
        raise ValueError(f"sir: capacity mode takes --v-each, --d-each and --sir-min together; "
                         f"missing {' and '.join(missing)}")
    cfg = _load_scenario(args)
    coupling = cfgmod.coupling_model_from_config(cfg)
    c_body = cfg.get("c_body", DEFAULT_C_BODY)
    interferers = list(args.interferer or [])
    if not interferers and "interferers" in cfg:
        interferers = [(v, d) for v, d in cfg["interferers"]]
    record: dict = {"v_sig_user": args.v_sig, "interferers": interferers}
    if interferers:
        scenario = InterferenceScenario(v_sig_user=args.v_sig,
                                        interferers=tuple(interferers),
                                        coupling=coupling, c_body=c_body)
        record["sir_db"] = sir_db(scenario)
    if not missing:
        record["max_cochannel_users"] = max_cochannel_users(
            args.v_sig, args.v_each, args.d_each, args.sir_min, coupling, c_body)
    if "sir_db" not in record and "max_cochannel_users" not in record:
        raise ValueError("sir: give --interferer entries and/or --v-each/--d-each/--sir-min")
    _emit_json(record, args.out)


def _cmd_fcc(args) -> None:
    cfg = _load_scenario(args)
    if args.freq is not None:
        limit, distance = fcc_limit(args.freq)
        _emit_json({"freq_hz": args.freq, "limit_uv_per_m": limit,
                    "distance_m": distance}, args.out)
        return
    model = cfgmod.field_model_from_config(cfg)
    grid = _parse_grid(_FCC_GRID) if args.grid is None else args.grid
    report = is_unintentional_radiator(model, grid)
    _emit_json({"compliant": report.compliant,
                "model": {"anchor_field_v_per_m": model.anchor_field,
                          "anchor_distance_m": model.anchor_distance,
                          "exponent": model.exponent},
                "rows": list(report.rows)}, args.out)


def _cmd_regions(args) -> None:
    from .multiregion import (_LABELS, CrossoverError, RegionLabel, _detection_distance,
                              _mechanism_table, _region_index, crossover_frequency)

    cfg = cfgmod.load_config(args.scenario)
    region_config = cfgmod.region_config_from_config(cfg, args.env)
    eqs = region_config.eqs_sweep(args.grid)
    index = _region_index(region_config, eqs)
    # a segment runs from the first point of its label to the first of the next label
    edges = [0, *((index[1:] != index[:-1]).nonzero()[0] + 1).tolist(), len(index) - 1]
    points = args.grid.points
    segments = [{"f_lo_hz": points[lo], "f_hi_hz": points[hi], "region": _LABELS[index[lo]].value}
                for lo, hi in zip(edges, edges[1:])]
    crossovers = {}
    for name, (a, b) in (("eqs_to_em_hz", (RegionLabel.EQS, RegionLabel.EM_SMALL_MONOPOLE)),
                         ("em_to_device_hz", (RegionLabel.EM_RESONANT,
                                              RegionLabel.DEVICE_COUPLING))):
        try:
            crossovers[name] = crossover_frequency(region_config, a, b)
        except CrossoverError:
            crossovers[name] = None
    record = {"segments": segments, "crossovers": crossovers}
    if args.sensitivity_db is not None:
        coupling = cfgmod.coupling_model_from_config(cfg)
        table = _mechanism_table(eqs, region_config.em, region_config.device)
        distances = _detection_distance(table, args.sensitivity_db, coupling)
        record["max_detection_distance_m"] = [{"freq_hz": f, "distance_m": d}
                                              for f, d in zip(args.grid, distances.tolist())]
    _emit_json(record, args.out)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqshbc",
        description="Body-channel sweeps, snooping/interference analysis and "
                    "radiator-limit checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="sweep a netlist transfer function to CSV")
    p.add_argument("--netlist", required=True)
    p.add_argument("--source", default="V1", help="voltage source label (default V1)")
    p.add_argument("--probe", type=_parse_probe, required=True, metavar="N+,N-")
    p.add_argument("--grid", type=_parse_grid, default=_BAND_GRID)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="stitched multi-region scenario sweep to CSV")
    p.add_argument("--scenario", required=True,
                   help="config path or bundled name (inter_body.cfg)")
    p.add_argument("--env", choices=["open_air", "anechoic"])
    p.add_argument("--load", type=_parse_load, metavar="KIND:VALUE",
                   help="override load, e.g. resistive:50 or capacitive:1e-12")
    p.add_argument("--grid", type=_parse_grid, default=_BAND_GRID)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("attack", help="snooper SNR and feasibility as JSON")
    p.add_argument("--snr", type=float, required=True, help="intended receiver SNR in dB")
    p.add_argument("--distance", type=float, required=True, help="attacker distance in m")
    p.add_argument("--threshold", type=float, default=AttackScenario.snr_threshold_db)
    p.add_argument("--config", help="optional config with coupling.* overrides")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("sir", help="signal-to-interference analysis as JSON")
    p.add_argument("--v-sig", type=float, required=True, help="on-body signal in volts")
    p.add_argument("--interferer", type=_parse_pair, action="append", metavar="V:D",
                   help="interferer amplitude:distance; repeatable")
    p.add_argument("--v-each", type=float, help="per-user amplitude for capacity mode")
    p.add_argument("--d-each", type=float, help="per-user distance for capacity mode")
    p.add_argument("--sir-min", type=float, help="minimum tolerable SIR in dB")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sir)

    p = sub.add_parser("fcc", help="radiator limit lookup or compliance report as JSON")
    lookup = p.add_mutually_exclusive_group()
    lookup.add_argument("--freq", type=float, help="single-frequency limit lookup")
    lookup.add_argument("--grid", type=_parse_grid, help=f"report grid (default {_FCC_GRID})")
    p.add_argument("--config", help="optional config with fcc.* model keys")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fcc)

    p = sub.add_parser("regions", help="region map and crossover frequencies as JSON")
    p.add_argument("--scenario", default="inter_body.cfg")
    p.add_argument("--env", choices=["open_air", "anechoic"])
    p.add_argument("--grid", type=_parse_grid, default=_BAND_GRID)
    p.add_argument("--sensitivity-db", type=float,
                   help="also report max detection distance for this channel-gain floor")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_regions)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:
        exc = cfgmod._keyed(exc)  # a refused scenario value names its config key
        # str() of a KeyError is the repr of its argument; report the message itself
        message = exc.args[0] if isinstance(exc, KeyError) else str(exc)
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": message}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
