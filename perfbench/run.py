"""Run one benchmark workload against the eqshbc sources in this checkout.

    python3 perfbench/run.py --workload region_sweeps --seed 1 --seconds 20 --trace 0

One client drives the library and the in-process CLI in a closed loop,
one pass over a deck of operations after another, until ``--seconds``
have passed. Each pass gets a fresh deck drawn from the seed and the
pass number, so no input repeats within a run, and every output goes
through its independent check, untimed. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` traces every other operation and
reports the per-layer metrics and the tracing overhead. The last stdout
line is the JSON result; the line before it records the machine and
library versions and the unscaled figures.

Operation times are scaled to a nominal machine speed. The speed of a
shared machine drifts by 15-40% over minutes, far more than a useful
regression bound, so a fixed reference kernel that does not touch eqshbc
runs before every timed operation, and each operation time is multiplied
by ``REFERENCE_S`` over the median of the last nine kernel times. An
operation time therefore reads as it would on a machine where the kernel
takes ``REFERENCE_S``. The set-up time is left unscaled: process start-up
does not follow the kernel's speed.
"""

import os

# Pin BLAS before numpy loads: one benchmark thread, no BLAS thread pool.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import deque  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path.cwd()
SETUP_SPAWNS = 15
SETUP_CODE = ("import eqshbc.cli\n"
              "from eqshbc import config, fcc\n"
              "fcc.limit_table()\n"
              "config.load_config('inter_body.cfg')\n")
TRACE_DIR = ".perfbench"
PROBE_WINDOW = 9  # kernel times in the speed probe's running median
# Median reference-kernel time on the 2-core Xeon VM the benchmark was defined on.
REFERENCE_S = 1.4e-3
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((48, 96)).view(complex)


def reference_kernel() -> float:
    """Fixed work in the proportions eqshbc spends its time on, without eqshbc."""
    total = 0.0
    for i in range(1, 900):  # scalar float code and small dicts, as in risk and fcc
        rec = {"d": i * 0.01, "c": 1e-12 * i}
        total += math.log10(rec["c"] / (rec["d"] + 0.2)) + math.sqrt(rec["d"])
    for k in range(6):  # a Python-stamped 7-node MNA solve with its condition number
        a = np.zeros((7, 7), dtype=complex)
        for i in range(7):
            for j in range(7):
                a[i, j] = complex(i + 1, j) if i != j else complex(10.0 + k, 1.0)
        total += np.linalg.cond(a) + abs(np.linalg.solve(a, np.ones(7))[0])
    # the singular values of a larger system, as in a ladder's condition check
    return total + np.linalg.svd(_REFERENCE_MATRIX, compute_uv=False)[0]


class SpeedProbe:
    """Tracks the machine's current speed with the reference kernel."""

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=PROBE_WINDOW)
        self.samples: list[float] = []
        for _ in range(PROBE_WINDOW):
            self.scale()

    def scale(self) -> float:
        """Run the kernel once; the factor that turns a time measured next into nominal time."""
        t0 = perf_counter()
        reference_kernel()
        elapsed = perf_counter() - t0
        self.recent.append(elapsed)
        self.samples.append(elapsed)
        return REFERENCE_S / statistics.median(self.recent)


def _import_program():
    """Import eqshbc from this checkout's sources, and the benchmark modules."""
    src = ROOT / "src"
    if not (src / "eqshbc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no eqshbc sources under {src}; run from the repository root")
    sys.path[:0] = [str(src), str(ROOT)]
    import eqshbc
    if Path(eqshbc.__file__).resolve().parent != (src / "eqshbc").resolve():
        sys.exit(f"perfbench: imported eqshbc from {eqshbc.__file__}, not {src}")
    from perfbench import golden, tracing, workloads
    return golden, tracing, workloads


def setup_seconds() -> float:
    """Median wall time of fresh interpreters that import the CLI and do its lazy set-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms,
        # and the times read in those steps.
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Tally:
    """Operations attempted and failed; a failure raised or failed its output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._reported: set[str] = set()

    def add(self, ok: bool, what: str = "", detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what not in self._reported:  # one report per operation kind
                self._reported.add(what)
                sys.stderr.write(f"perfbench: {what} failed\n{detail}\n")


def attempt(op, tally: Tally, tracer=None) -> float:
    """Run op once, traced if a tracer is given, and check its output untraced.

    Returns the time of the run alone.
    """
    t0 = perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.active(), tracer.op_span(op.kind):
                out = op.run()
    except Exception:
        elapsed = perf_counter() - t0
        tally.add(False, op.kind, traceback.format_exc())
        return elapsed
    elapsed = perf_counter() - t0
    try:
        op.check(out)
    except Exception:
        tally.add(False, op.kind, traceback.format_exc())
    else:
        tally.add(True)
    return elapsed


def ops_per_second(times: list[float]) -> float:
    """Operations completed per second of the time spent in them."""
    return len(times) / sum(times)


def measure(make_deck, seconds: float, tally: Tally, tracer=None, probe=None):
    """Closed loop of whole passes over fresh decks until ``seconds`` have passed.

    ``make_deck(i)`` gives the deck of pass ``i``. With a tracer, every
    other operation is traced, alternating between passes, and at least
    two passes run so that both sets of times cover each deck position.
    With a probe, untraced times are scaled to nominal speed. Returns the
    operation times (untraced, traced) and the output rows of the traced
    operations.
    """
    plain, traced = [], []
    traced_rows = 0
    min_passes = 1 if tracer is None else 2
    deadline = perf_counter() + seconds
    passes = 0
    while passes < min_passes or perf_counter() < deadline:
        for k, op in enumerate(make_deck(passes)):
            if tracer is not None and (passes + k) % 2:
                traced.append(attempt(op, tally, tracer))
                traced_rows += op.rows
            else:
                scale = probe.scale() if probe is not None else 1.0
                plain.append(attempt(op, tally) * scale)
        passes += 1
    return plain, traced, traced_rows


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"machine": platform.machine(), "cpu": cpu, "cpus": os.cpu_count(),
            "os": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_PINS["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    golden, tracing, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    probe = None if args.trace else SpeedProbe()
    setup_s = None if args.trace else setup_seconds()
    build = workloads.WORKLOADS[args.workload]

    def make_deck(pass_index: int) -> list:
        return build(random.Random(f"{args.seed}/{pass_index}"))

    tally = Tally()
    mismatched = []
    if args.workload == "region_sweeps":
        mismatched = golden.check()
        for name in golden.cases():
            tally.add(name not in mismatched, f"golden {name}", "output differs from golden file")

    tracer = tracing.Tracer(keep_ops=len(make_deck(0))) if args.trace else None
    try:
        plain, traced, traced_rows = measure(make_deck, args.seconds, tally, tracer, probe)
    finally:
        shutil.rmtree(workloads.INPUT_DIR, ignore_errors=True)
    samples = [t * 1e3 for t in plain]

    if tracer is None:
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        metrics = {
            "ops_per_s": (ops_per_second(plain), "1/s"),
            "op_ms_p50": (cuts[49], "ms"),
            "op_ms_p90": (cuts[89], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            # a golden mismatch is a few attempts among hundreds; it zeroes the ratio
            "ok_ratio": (0.0 if mismatched
                         else (tally.attempted - tally.failed) / tally.attempted, "ratio"),
        }
    else:
        metrics = tracer.totals.metrics(traced_rows)
        metrics["trace.overhead_ratio"] = (
            ops_per_second(traced) / ops_per_second(plain), "ratio")
        tracer.write(ROOT / TRACE_DIR / f"trace-{args.workload}.json")

    unscaled = {}
    if probe is not None:
        unscaled = {"reference_ms": statistics.median(probe.samples) * 1e3,
                    "nominal_reference_ms": REFERENCE_S * 1e3}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "samples": len(samples), "unscaled": unscaled,
                      "environment": environment()}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
