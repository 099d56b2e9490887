"""Tests of the benchmark itself. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from eqshbc import cli, risk, solver
from perfbench import golden, run, tracing, workloads

ROOT = Path(__file__).resolve().parents[1]


def _cheap_ops(name, count):
    deck = workloads.WORKLOADS[name](random.Random(3))
    return sorted(deck, key=lambda op: op.rows)[:count]


@pytest.mark.parametrize("name,count", [("region_sweeps", 4), ("ladder_netlists", 2),
                                        ("point_analyses", 28)])
def test_tracing_leaves_outputs_byte_identical(name, count):
    tracer = tracing.Tracer(keep_ops=count)
    original_main = cli.main
    for op in _cheap_ops(name, count):
        plain = op.run()
        with tracer.active(), tracer.op_span(op.kind):
            traced = op.run()
        assert traced == plain
    assert cli.main is original_main
    assert tracer.totals.ops == count
    assert tracer.totals.spans > count


def test_traced_cli_matches_golden_files():
    tracer = tracing.Tracer()
    with tracer.active():
        assert golden.check() == []


def test_self_times_of_synthetic_spans():
    # root 0-10 holds A 1-4 (which holds a 2-3) and B 5-9
    spans = [(0, -1, 0, 0.0, 10.0, 0, 0, 0, 0), (1, 0, 0, 1.0, 4.0, 0, 0, 0, 0),
             (2, 1, 0, 2.0, 3.0, 0, 0, 0, 0), (3, 0, 0, 5.0, 9.0, 0, 0, 0, 0)]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_adds_up_to_span_total():
    tracer = tracing.Tracer(keep_ops=2)
    ops = _cheap_ops("region_sweeps", 1) + _cheap_ops("point_analyses", 1)
    with tracer.active():
        for op in ops:
            with tracer.op_span(op.kind):
                op.run()
    roots = [i for i, s in enumerate(tracer.kept) if s[tracing.PARENT] == -1]
    assert len(roots) == 2
    for start, end in zip(roots, roots[1:] + [len(tracer.kept)]):
        spans = tracer.kept[start:end]
        own = tracing.self_times(spans)
        assert min(own) >= 0.0
        total = spans[0][tracing.T1] - spans[0][tracing.T0]
        assert math.isclose(sum(own), total, rel_tol=1e-9)
    metrics = tracer.totals.metrics(output_rows=1)
    layer_self = sum(metrics[f"{layer}.self_ms"][0] for layer in tracing.LAYERS)
    op_total = sum(s[tracing.T1] - s[tracing.T0] for s in tracer.kept
                   if s[tracing.PARENT] == -1) * 1e3 / 2
    assert 0.0 < layer_self <= op_total


def test_solver_points_count_each_grid_once():
    tracer = tracing.Tracer()
    deck = workloads.ladder_netlists(random.Random(1))
    with tracer.active():
        for op in deck:
            with tracer.op_span(op.kind):
                op.run()
    metrics = tracer.totals.metrics(output_rows=sum(op.rows for op in deck))
    assert metrics["solver.points"][0] == workloads.LADDER_POINTS
    assert metrics["solver.points_per_output_row"][0] == 1.0
    assert metrics["netlist.calls"][0] == 1.0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_passes_share_no_input(name):
    decks = [workloads.WORKLOADS[name](random.Random(f"7/{i}")) for i in range(2)]
    # distances can all sit at the cap, so only their inputs differ
    outputs = [repr(op.run()) for deck in decks for op in deck
               if op.kind != "max_detection_distance"]
    assert len(set(outputs)) == len(outputs)


def test_checks_run_untraced():
    deck = [op for op in workloads.point_analyses(random.Random(6))
            if op.kind == "calibrate_return_scale"]
    tracer = tracing.Tracer()
    tally = run.Tally()
    run.measure(lambda i: deck, 0.0, tally, tracer)
    assert tally.attempted == 2 * len(deck) and tally.failed == 0
    assert tracer.totals.ops == len(deck)
    assert tracer.totals.metrics(output_rows=1)["bodychannel.calls"][0] == 1.0


def test_wrong_output_is_counted_as_failed(monkeypatch):
    deck = workloads.ladder_netlists(random.Random(2))[:3]
    tally = run.Tally()
    run.measure(lambda i: deck, 0.0, tally)
    assert (tally.attempted, tally.failed) == (3, 0)

    monkeypatch.setattr(solver, "sweep_csv", lambda result: "freq_hz\n")
    run.measure(lambda i: deck, 0.0, tally)
    assert (tally.attempted, tally.failed) == (6, 3)


def test_checks_catch_a_small_error(monkeypatch):
    deck = workloads.point_analyses(random.Random(4))
    sir_ops = sum(op.kind == "sir" for op in deck)
    original = risk.sir_db
    monkeypatch.setattr(risk, "sir_db", lambda scenario: original(scenario) + 1e-6)
    tally = run.Tally()
    for op in deck:
        run.attempt(op, tally)
    assert tally.failed == sir_ops > 0


def test_golden_check_catches_changed_bytes(monkeypatch):
    monkeypatch.setattr(cli, "_round9", lambda obj: obj)
    mismatched = golden.check()
    assert "attack.json" in mismatched
    assert not any(name.endswith(".csv") for name in mismatched)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_metric(trace, section):
    proc = _bench("--workload", "point_analyses", "--seed", "5", "--seconds", "0.2",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "region_sweeps", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
