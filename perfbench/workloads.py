"""Seeded operation decks for the three benchmark workloads, with output checks.

A deck is a list of operations made from a random generator alone. Each
operation's ``run`` calls eqshbc through module attributes (so the
tracer's wrappers are seen); its ``check`` verifies the returned value
independently and raises ``WrongOutput``. Input sizes are fixed per
workload; the generator draws parameter values, element values, grid
ends, scenario files and the order of the deck. Every value is drawn
from a continuous range, so two decks share no input: a memo inside
eqshbc cannot turn a repeated input into a free operation.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from eqshbc import bodychannel, cli, config, fcc, multiregion, netlist, risk, solver

ROOT = Path(__file__).resolve().parents[1]
# Generated scenario and config files; run.py removes the directory when it ends.
INPUT_DIR = ROOT / ".perfbench" / "inputs"
REGION_LABELS = {label.value for label in multiregion.RegionLabel}
ENVIRONMENTS = ("open_air", "anechoic")
BUNDLED_CONFIGS = ("inter_body.cfg", "intra_body.cfg")
C_BODY = 150e-12  # the default body-to-earth capacitance, farads


class WrongOutput(Exception):
    """An operation returned a value that fails its check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


def close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isfinite(a) and math.isfinite(b) and math.isclose(a, b, rel_tol=rel,
                                                                   abs_tol=abs_tol)


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    rows: int  # output rows the operation emits


# --- seeded scenario files ---------------------------------------------------

def varied_config(rng: random.Random, name: str) -> dict:
    """A bundled config with each number scaled by a drawn factor in [0.9, 1.1].

    The coupling anchors' capacitances share one factor, so that their fit
    stays a decreasing coupling model.
    """
    def vary(value: float, factor: float) -> float:
        return float(f"{value * factor:.6g}")

    cfg = {key: vary(value, rng.uniform(0.9, 1.1)) if isinstance(value, float) else value
           for key, value in config.load_config(name).items()}
    factor = rng.uniform(0.9, 1.1)
    cfg["coupling.anchors"] = [[d, vary(c, factor)] for d, c in cfg["coupling.anchors"]]
    return cfg


def config_file(cfg: dict) -> str:
    """Write cfg as config text; the path, named after the text, is unique to it."""
    text = "# generated benchmark scenario\n" + "".join(
        f"{key} = {json.dumps(value)}\n" for key, value in cfg.items())
    path = INPUT_DIR / f"{hashlib.sha1(text.encode()).hexdigest()[:20]}.cfg"
    INPUT_DIR.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


# --- region_sweeps: the CLI hot path ------------------------------------------

def cli_output(argv: list[str]) -> str:
    """stdout of an in-process ``eqshbc`` invocation that must exit 0."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    if code != 0:
        raise WrongOutput(f"eqshbc {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _reject_constant(token: str):
    raise WrongOutput(f"non-finite JSON value {token}")


def _log_grid(start: str, stop: str, n: int) -> list[float]:
    lo, hi = math.log(float(start)), math.log(float(stop))
    return [math.exp(lo + (hi - lo) * i / (n - 1)) for i in range(n)]


def _check_sweep(text: str, grid: list[float]) -> None:
    lines = text.splitlines()
    expect(lines[0] == "freq_hz,gain_re,gain_im,gain_db,phase_deg,region",
           f"bad CSV header {lines[0]!r}")
    expect(len(lines) - 1 == len(grid), f"{len(lines) - 1} CSV rows for {len(grid)} points")
    for line, f in zip(lines[1:], grid):
        fields = line.split(",")
        expect(len(fields) == 6, f"bad CSV row {line!r}")
        freq, re_, im, db, phase = (float(x) for x in fields[:5])
        expect(close(freq, f, 1e-8), f"row frequency {freq} for grid point {f}")
        expect(close(db, 20.0 * math.log10(math.hypot(re_, im)), 0.0, 1e-6),
               f"gain_db inconsistent with the gain in {line!r}")
        expect(math.isfinite(phase), f"non-finite phase in {line!r}")
        expect(fields[5] in REGION_LABELS, f"unknown region in {line!r}")


def _check_regions(text: str, grid: list[float], sensitivity: bool) -> None:
    record = json.loads(text, parse_constant=_reject_constant)
    segments = record["segments"]
    expect(close(segments[0]["f_lo_hz"], grid[0], 1e-8), "segments do not start at the grid")
    expect(close(segments[-1]["f_hi_hz"], grid[-1], 1e-8), "segments do not end at the grid")
    for a, b in zip(segments, segments[1:]):
        expect(a["f_hi_hz"] == b["f_lo_hz"], "segments are not contiguous")
        expect(a["region"] != b["region"], "adjacent segments share a region")
    for seg in segments:
        expect(seg["region"] in REGION_LABELS, f"unknown region {seg['region']!r}")
        expect(seg["f_lo_hz"] <= seg["f_hi_hz"], "segment runs backwards")
    expect(set(record["crossovers"]) == {"eqs_to_em_hz", "em_to_device_hz"},
           "missing crossover keys")
    for value in record["crossovers"].values():
        expect(value is None or 1e5 <= value <= 1e9, f"crossover {value} outside the band")
    if not sensitivity:
        expect("max_detection_distance_m" not in record, "unrequested detection distances")
        return
    distances = record["max_detection_distance_m"]
    expect(len(distances) == len(grid), f"{len(distances)} distances for {len(grid)} points")
    for row, f in zip(distances, grid):
        expect(close(row["freq_hz"], f, 1e-8), "distance row off the grid")
        expect(0.0 <= row["distance_m"] <= multiregion.DETECTION_DISTANCE_CAP_M,
               f"distance {row['distance_m']} outside [0, cap]")


def _grid_spec(rng: random.Random, n: int) -> tuple[str, list[float]]:
    start, stop = f"{10 ** rng.uniform(5.0, 5.5):.6g}", f"{10 ** rng.uniform(8.5, 9.0):.6g}"
    return f"{start}:{stop}:{n}log", _log_grid(start, stop, n)


def spaced(lo: int, hi: int, count: int) -> list[int]:
    """count sizes evenly spread over [lo, hi].

    Evenly spread sizes give each deck a near-continuous spread of
    operation costs, so its latency percentiles do not sit on the gap
    between two cost classes and jump from seed to seed.
    """
    return [round(lo + (hi - lo) * (i + 0.5) / count) for i in range(count)]


def region_sweeps(rng: random.Random) -> list[Op]:
    """sweep and regions commands, each over its own variant of the inter-body scenario.

    Two thirds are regions commands, so the median latency falls inside
    their cost range and not in the gap between the two commands' costs.
    """
    ops = []
    for i, n in enumerate(spaced(100, 300, 8)):
        env, kind = ENVIRONMENTS[i % 2], ("capacitive", "resistive")[i // 2 % 2]
        value = (10 ** rng.uniform(-12.5, -11.5) if kind == "capacitive"
                 else 10 ** rng.uniform(1.0, 3.0))
        spec, grid = _grid_spec(rng, n)
        scenario = config_file(varied_config(rng, "inter_body.cfg"))
        argv = ["sweep", "--scenario", scenario, "--env", env,
                "--load", f"{kind}:{value:.4g}", "--grid", spec]
        ops.append(Op("sweep", lambda argv=argv: cli_output(argv),
                      lambda text, grid=grid: _check_sweep(text, grid), n))
    # With --sensitivity-db on the largest grids the costliest third of the
    # deck has nearly one cost, so the 90th percentile falls inside it.
    for sensitivity, sizes in ((False, spaced(100, 300, 8)), (True, spaced(250, 300, 8))):
        for i, n in enumerate(sizes):
            spec, grid = _grid_spec(rng, n)
            scenario = config_file(varied_config(rng, "inter_body.cfg"))
            argv = ["regions", "--scenario", scenario, "--env", ENVIRONMENTS[i % 2],
                    "--grid", spec]
            if sensitivity:
                argv += ["--sensitivity-db", f"{rng.uniform(-110.0, -70.0):.3f}"]
            ops.append(Op("regions", lambda argv=argv: cli_output(argv),
                          lambda text, grid=grid, s=sensitivity: _check_regions(text, grid, s),
                          n))
    rng.shuffle(ops)
    return ops


# --- ladder_netlists: larger MNA systems and netlist parsing ------------------

SI_SCALES = (("M", 1e6), ("k", 1e3), ("", 1.0), ("m", 1e-3), ("u", 1e-6), ("n", 1e-9),
             ("p", 1e-12), ("f", 1e-15))
LADDER_SECTIONS = (4, 8, 16, 24, 32, 40, 48, 64)
LADDER_POINTS = 100


def si_text(value: float) -> tuple[str, float]:
    """Four-digit SI-suffixed text for value, and the exact value it denotes."""
    for suffix, scale in SI_SCALES:
        if value >= scale:
            break
    mantissa = f"{value / scale:.4g}"
    return mantissa + suffix, float(mantissa) * scale


@functools.cache
def _oracle():
    spec = importlib.util.spec_from_file_location(
        "circuit_oracle", ROOT / "tests" / "circuit_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_ladder(text: str, elements: list[tuple], out_node: int,
                  grid: solver.FrequencyGrid) -> None:
    oracle = _oracle()
    lines = text.splitlines()
    expect(lines[0] == "freq_hz,gain_re,gain_im,gain_db,phase_deg", f"bad header {lines[0]!r}")
    expect(len(lines) - 1 == len(grid), f"{len(lines) - 1} CSV rows for {len(grid)} points")
    for line, f in zip(lines[1:], grid):
        freq, re_, im, db, _ = (float(x) for x in line.split(","))
        expect(close(freq, f, 1e-8), f"row frequency {freq} for grid point {f}")
        want = oracle.brute_force_voltages(elements, f)[out_node]
        expect(abs(complex(re_, im) - want) <= 1e-7 * abs(want),
               f"gain {complex(re_, im)} against oracle {want} at {f:g} Hz")
        expect(close(db, 20.0 * math.log10(abs(want)), 0.0, 1e-6), f"gain_db off at {f:g} Hz")


def _ladder(rng: random.Random, sections: int, with_inductors: bool) -> Op:
    """Series R (paralleled by L in RLC ladders) with shunt C at every node.

    The grid spans two decades either side of the ladder's RC diffusion
    corner, where the gain stays far from underflow.
    """
    r0, c0 = 10 ** rng.uniform(2.0, 4.0), 10 ** rng.uniform(-11.0, -8.0)
    corner = 1.0 / (2.0 * math.pi * r0 * c0 * sections ** 2)
    lines = [f"# {'RLC' if with_inductors else 'RC'} ladder, {sections} sections",
             "V1 1 0 1"]
    elements = [("V", 1, 0, 1.0)]
    for k in range(1, sections + 1):
        parts = [("R", k, k + 1, r0 * rng.uniform(0.8, 1.25)),
                 ("C", k + 1, 0, c0 * rng.uniform(0.8, 1.25))]
        if with_inductors:
            f_l = corner * 10 ** rng.uniform(-1.0, 1.0)
            parts.append(("L", k, k + 1, r0 / (2.0 * math.pi * f_l)))
        for kind, a, b, value in parts:
            text, exact = si_text(value)
            lines.append(f"{kind}{k} {a} {b} {text}")
            elements.append((kind, a, b, exact))
    text = "\n".join(lines) + "\n"
    grid = solver.FrequencyGrid.log(corner * 10 ** rng.uniform(-2.5, -1.5),
                                    corner * 10 ** rng.uniform(1.5, 2.5), LADDER_POINTS)
    out_node = sections + 1

    def run() -> str:
        parsed = netlist.parse_netlist(text)
        return solver.sweep_csv(solver.transfer(parsed, "V1", (out_node, 0), grid))

    return Op("ladder", run, lambda csv: _check_ladder(csv, elements, out_node, grid),
              LADDER_POINTS)


def ladder_netlists(rng: random.Random) -> list[Op]:
    """RC and RLC ladders of 4-64 sections, parsed, swept and rendered."""
    ops = [_ladder(rng, n, rlc) for n in LADDER_SECTIONS for rlc in (False, True)]
    rng.shuffle(ops)
    return ops


# --- point_analyses: single-point solves and closed-form analyses -------------

def _coupling_closed_form(anchors=bodychannel.DEFAULT_COUPLING_ANCHORS,
                          d0: float = bodychannel.DEFAULT_COUPLING_D0
                          ) -> tuple[float, float, float]:
    """(a, d0, b) of C_C(d) = a/(d + d0) + b through two anchors (the defaults)."""
    (d1, c1), (d2, c2) = anchors
    a = (c1 - c2) / (1.0 / (d1 + d0) - 1.0 / (d2 + d0))
    return a, d0, c1 - a / (d1 + d0)


def _cap(d: float) -> float:
    a, d0, b = _coupling_closed_form()
    return a / (d + d0) + b


def _gain_db(scale: float, c_c: float | None, f: float) -> float:
    params = bodychannel.scale_return_path(bodychannel.BodyChannelParams(), scale)
    if c_c is None:
        return bodychannel.intra_body_gain_db(params, f)
    return bodychannel.inter_body_gain_db(bodychannel.InterBodyParams(params, c_c), f)


def _return_scale_op(rng: random.Random, inter: bool) -> Op:
    c_c = 10 ** rng.uniform(-11.3, -10.7) if inter else None
    target = rng.uniform(70.0, 90.0) if inter else rng.uniform(50.0, 70.0)

    def check(scale: float) -> None:
        expect(close(_gain_db(scale, c_c, 500e3), -target, 0.0, 1e-6),
               f"return scale {scale} misses the {target} dB loss")
        if c_c is not None:
            ratio_db = _gain_db(scale, c_c, 500e3) - _gain_db(scale, None, 500e3)
            # extra_loss_db's closed form, which the circuits track within 0.1 dB
            expect(close(ratio_db, 20.0 * math.log10(c_c / C_BODY), 0.0, 0.1),
                   f"inter/intra ratio {ratio_db} dB off 20*log10(c_c/c_body)")

    return Op("calibrate_return_scale",
              lambda: bodychannel.calibrate_return_scale(target, c_c=c_c), check, 1)


def _anechoic_boost_op(rng: random.Random) -> Op:
    c_c, f = 10 ** rng.uniform(-11.3, -10.7), 10 ** rng.uniform(5.0, 6.0)
    target = rng.uniform(6.0, 12.0)

    def check(boost: float) -> None:
        rise = _gain_db(boost, c_c, f) - _gain_db(1.0, c_c, f)
        expect(close(rise, target, 0.0, 1e-6), f"boost {boost} gives {rise} dB, not {target}")

    return Op("calibrate_anechoic_boost",
              lambda: bodychannel.calibrate_anechoic_boost(c_c=c_c, f=f, target_db=target),
              check, 1)


def _detection_op(rng: random.Random, env: str, n: int) -> Op:
    region_config = config.region_config_from_config(varied_config(rng, "inter_body.cfg"), env)
    freqs = sorted(10 ** rng.uniform(5.0, 9.0) for _ in range(n))
    floor_db = rng.uniform(-110.0, -70.0)
    cap = multiregion.DETECTION_DISTANCE_CAP_M

    def run() -> list[float]:
        return [multiregion.max_detection_distance(region_config, f, floor_db) for f in freqs]

    def check(distances: list[float]) -> None:
        for f, d in zip(freqs, distances):
            eqs_db, em_db, dev_db = region_config.mechanism_gains_db(f)
            probe = min(d, cap)
            expect(0.0 < probe <= cap, f"distance {d} at {f:g} Hz outside (0, cap]")
            # C_C(d) inversion: at the returned distance the strongest
            # mechanism, scaled to that distance, sits exactly on the floor.
            best = max(eqs_db + 20.0 * math.log10(_cap(probe) / _cap(1.0)),
                       em_db - 20.0 * math.log10(probe), dev_db - 20.0 * math.log10(probe))
            on_floor = close(best, floor_db, 0.0, 1e-6)
            expect(on_floor or (d == cap and best >= floor_db - 1e-6),
                   f"distance {d} at {f:g} Hz gives {best} dB against floor {floor_db}")

    return Op("max_detection_distance", run, check, n)


def _attack_op(rng: random.Random, n: int) -> Op:
    # The SNR margin keeps the safe distance inside (0, 100 m), so every
    # report runs the same safe-distance search whatever the seed.
    threshold = rng.uniform(3.0, 12.0)
    snr = threshold + rng.uniform(8.0, 33.0)
    scenarios = [risk.AttackScenario(snr_intended_db=snr, attacker_distance=rng.uniform(0.0, 20.0),
                                     snr_threshold_db=threshold) for _ in range(n)]

    def run() -> list[dict]:
        return [risk.attack_report(s) for s in scenarios]

    def check(reports: list[dict]) -> None:
        a, d0, b = _coupling_closed_form()
        c_safe = C_BODY * 10 ** ((threshold - snr) / 20.0)
        if c_safe > _cap(0.0):
            safe = 0.0
        else:
            safe = a / (c_safe - b) - d0 if c_safe > b else math.inf
        if safe >= risk.DISTANCE_CAP_M:
            safe = None
        for s, rep in zip(scenarios, reports):
            d = s.attacker_distance
            snooper = snr + 20.0 * math.log10(_cap(d) / C_BODY)
            expect(close(rep["snooper_snr_db"], snooper, 0.0, 1e-9), f"snooper SNR at {d} m")
            expect(rep["feasible"] == (snooper >= threshold), f"feasibility at {d} m")
            if safe is None:
                expect(rep["min_safe_distance_m"] is None, "finite safe distance past the tail")
            else:
                expect(close(rep["min_safe_distance_m"], safe, 0.0, 1e-6),
                       f"safe distance {rep['min_safe_distance_m']} against {safe}")
            if d > 0:
                expect(close(rep["max_safe_snr_db"],
                             threshold - 20.0 * math.log10(_cap(d) / C_BODY), 0.0, 1e-9),
                       f"max safe SNR at {d} m")

    return Op("attack_report", run, check, n)


def _sir_op(rng: random.Random, n: int) -> Op:
    cases = []
    for _ in range(n):
        v_sig = rng.uniform(0.1, 2.0)
        interferers = tuple((rng.uniform(0.1, 2.0), rng.uniform(0.5, 10.0))
                            for _ in range(rng.randint(1, 5)))
        cases.append((risk.InterferenceScenario(v_sig_user=v_sig, interferers=interferers),
                      v_sig, rng.uniform(0.1, 2.0), rng.uniform(0.5, 10.0),
                      rng.uniform(0.0, 30.0)))

    def run() -> list[tuple[float, int]]:
        return [(risk.sir_db(s), risk.max_cochannel_users(v_sig, v_each, d_each, sir_min))
                for s, v_sig, v_each, d_each, sir_min in cases]

    def check(results: list[tuple[float, int]]) -> None:
        for (s, v_sig, v_each, d_each, sir_min), (sir, users) in zip(cases, results):
            v_intf = sum(v * _cap(d) / C_BODY for v, d in s.interferers)
            expect(close(sir, 20.0 * math.log10(v_sig / v_intf), 0.0, 1e-9), "sir_db")
            per_user = v_each * _cap(d_each) / C_BODY

            def sir_with(k: int) -> float:
                return 20.0 * math.log10(v_sig / (k * per_user)) if k else math.inf

            expect(sir_with(users) >= sir_min - 1e-9, f"{users} users break the SIR floor")
            expect(users == risk.MAX_COCHANNEL_USERS or sir_with(users + 1) < sir_min + 1e-9,
                   f"{users + 1} users would still meet the SIR floor")

    return Op("sir", run, check, n)


# Conducted/radiated emission limits for unintentional radiators:
# (upper frequency, limit in uV/m or a function of f in kHz, distance in m).
FCC_LIMITS = ((490e3, lambda f: 2400.0 / (f / 1e3), 300.0),
              (1.705e6, lambda f: 24000.0 / (f / 1e3), 30.0),
              (30e6, lambda f: 30.0, 30.0),
              (88e6, lambda f: 100.0, 3.0),
              (216e6, lambda f: 150.0, 3.0),
              (960e6, lambda f: 200.0, 3.0),
              (math.inf, lambda f: 500.0, 3.0))


def _fcc_op(rng: random.Random, n: int) -> Op:
    model = fcc.FieldDecayModel(anchor_field=10 ** rng.uniform(-2.0, -0.5),
                                exponent=rng.uniform(2.5, 3.5))
    grid = solver.FrequencyGrid.log(10 ** rng.uniform(4.0, 4.5), 10 ** rng.uniform(8.5, 9.0), n)

    def run():
        report = fcc.is_unintentional_radiator(model, grid)
        return report.compliant, report.rows

    def check(result) -> None:
        compliant, rows = result
        expect(len(rows) == n, f"{len(rows)} rows for {n} points")
        for f, row in zip(grid, rows):
            f_high, limit, distance = next(r for r in FCC_LIMITS if f < r[0])
            field = model.anchor_field * (model.anchor_distance / distance) ** model.exponent
            expect(close(row["limit_uv_per_m"], limit(f), 1e-12), f"limit at {f:g} Hz")
            expect(row["distance_m"] == distance, f"distance at {f:g} Hz")
            expect(close(row["margin_factor"], limit(f) * 1e-6 / field, 1e-12),
                   f"margin at {f:g} Hz")
            expect(row["compliant"] == (row["margin_factor"] > 1.0), f"verdict at {f:g} Hz")
        expect(compliant == all(r["compliant"] for r in rows), "overall verdict")

    return Op("is_unintentional_radiator", run, check, n)


def _config_op(rng: random.Random, count: int) -> Op:
    cfgs = [varied_config(rng, rng.choice(BUNDLED_CONFIGS)) for _ in range(count)]
    paths = [config_file(cfg) for cfg in cfgs]

    def run() -> list[tuple]:
        out = []
        for path in paths:
            cfg = config.load_config(path)
            coupling = config.coupling_model_from_config(cfg)
            field = config.field_model_from_config(cfg)
            out.append((cfg, coupling.a, coupling.b, field.anchor_field))
        return out

    def check(results: list[tuple]) -> None:
        for want, (cfg, got_a, got_b, anchor) in zip(cfgs, results):
            expect(cfg == want, f"{want} parsed as {cfg}")
            a, _, b = _coupling_closed_form(want["coupling.anchors"], want["coupling.d0"])
            expect(close(got_a, a, 1e-9) and close(got_b, b, 1e-9, 1e-24), "coupling fit")
            expect(anchor == want.get("fcc.anchor_field", 0.0648), "field model")

    return Op("load_config", run, check, count)


def point_analyses(rng: random.Random) -> list[Op]:
    """Calibrations, detection distances, attack, SIR, FCC and config studies."""
    ops = []
    for inter in (True, False, True, False):
        ops += [_return_scale_op(rng, inter), _anechoic_boost_op(rng)]
    for i, n in enumerate(spaced(30, 60, 4)):
        ops.append(_detection_op(rng, ENVIRONMENTS[i % 2], n))
    ops += [_attack_op(rng, n) for n in spaced(100, 250, 4)]
    ops += [_sir_op(rng, n) for n in spaced(100, 300, 4)]
    ops += [_fcc_op(rng, n) for n in spaced(1500, 4000, 4)]
    ops += [_config_op(rng, n) for n in spaced(10, 40, 4)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "region_sweeps": region_sweeps,
    "ladder_netlists": ladder_netlists,
    "point_analyses": point_analyses,
}
