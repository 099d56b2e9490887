"""Command-line front end: sweeps and analyses to CSV/JSON.

Output is deterministic: stable ordering, floats forced through 9
significant digits, so repeated runs with identical inputs are
byte-identical. Exit codes: 0 success, 1 model/solver error (with a
machine-readable JSON line on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import config as cfgmod
from .bodychannel import DEFAULT_C_BODY
from .fcc import fcc_limit, is_unintentional_radiator
from .multiregion import (
    CrossoverError,
    RegionLabel,
    _detection_distance,
    classify_sweep,
    crossover_frequency,
    total_response,
)
from .netlist import parse_netlist
from .risk import (
    AttackScenario,
    InterferenceScenario,
    attack_report,
    max_cochannel_users,
    sir_db,
)
from .solver import FrequencyGrid, sweep_csv, transfer

__all__ = ["main"]

# The band grid that solve, sweep and regions take when --grid is absent.
_BAND_GRID = "1e5:1e9:200"


def _parse_grid(spec: str) -> FrequencyGrid:
    try:
        start, stop, count = spec.split(":")
        build = FrequencyGrid.linear if count.endswith("lin") else FrequencyGrid.log
        n = int(count[:-3]) if count[-3:] in ("lin", "log") else int(count)
        return build(float(start), float(stop), n)
    except (ValueError, TypeError):
        raise argparse.ArgumentTypeError(
            f"grid must be 'start:stop:N[log|lin]', got {spec!r}") from None


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


def _round9(obj):
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(record: dict, out: str | None) -> None:
    _emit(json.dumps(_round9(record), sort_keys=True, indent=2, allow_nan=False) + "\n", out)


def _load_scenario(args) -> dict:
    return cfgmod.load_config(args.config) if args.config else {}


def _cmd_solve(args) -> None:
    netlist = parse_netlist(Path(args.netlist).read_text())
    result = transfer(netlist, args.source, args.probe, args.grid)
    _emit(sweep_csv(result), args.out)


def _cmd_sweep(args) -> None:
    cfg = cfgmod.load_config(args.scenario)
    if args.load:
        kind, _, value = args.load.partition(":")
        cfg["load.kind"] = kind
        cfg["load.value"] = float(value)
    region_config = cfgmod.region_config_from_config(cfg, args.env)
    eqs = region_config.eqs_sweep(args.grid)
    total = total_response(eqs, region_config.em, region_config.device)
    labels = [label.value for label in classify_sweep(region_config, eqs)]
    _emit(sweep_csv(total, regions=labels), args.out)


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
        value = sir_db(scenario)
        record["sir_db"] = value if value != float("inf") else "inf"
    if args.v_each is not None and args.d_each is not None and args.sir_min is not None:
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
    report = is_unintentional_radiator(model, args.grid)
    _emit_json({"compliant": report.compliant,
                "model": {"anchor_field_v_per_m": model.anchor_field,
                          "anchor_distance_m": model.anchor_distance,
                          "exponent": model.exponent},
                "rows": list(report.rows)}, args.out)


def _cmd_regions(args) -> None:
    cfg = cfgmod.load_config(args.scenario)
    region_config = cfgmod.region_config_from_config(cfg, args.env)
    eqs = region_config.eqs_sweep(args.grid)
    labels = classify_sweep(region_config, eqs)
    points = args.grid.points
    edges = [0, *(i for i in range(1, len(labels)) if labels[i] != labels[i - 1]), len(labels) - 1]
    segments = [{"f_lo_hz": points[lo], "f_hi_hz": points[hi], "region": labels[lo].value}
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
        distances = _detection_distance(region_config, points, eqs.gain_db(),
                                        args.sensitivity_db, coupling)
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
    p.add_argument("--load", help="override load, e.g. resistive:50 or capacitive:1e-12")
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
    p.add_argument("--freq", type=float, help="single-frequency limit lookup")
    p.add_argument("--grid", type=_parse_grid, default="1e5:1e6:25")
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
        # str() of a KeyError is the repr of its argument; report the message itself
        message = exc.args[0] if isinstance(exc, KeyError) else str(exc)
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": message}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
