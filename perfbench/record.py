"""Run every workload over several seeds and write a BENCH file of the results.

    python3 perfbench/record.py --label seed

From the repository root. Each workload runs once untraced for each of
the seeds 1-10, and once traced, each run for ``run_seconds``. The file ``perfbench/BENCH_<label>.json``
gets every value, and per metric the median and the spread: the distance
between the first and third quartiles as a share of the median. Compare
two files made with the same settings on the same machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {"seed": seed, "info": info, "result": result}


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    out = {"label": args.label, "seconds": SPEC["run_seconds"], "seeds": list(SEEDS),
           "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [bench(workload, seed, 0) for seed in SEEDS]
        traced = bench(workload, SEEDS[0], 1)
        out["environment"] = runs[0]["info"]["environment"]
        end_to_end = {m["name"]: summary([r["result"]["metrics"][m["name"]]["value"]
                                           for r in runs]) for m in SPEC["end_to_end"]}
        out["workloads"][workload] = {
            "failed": sum(r["result"]["failed"] for r in runs + [traced]),
            "end_to_end": end_to_end,
            "reference_ms": [r["info"]["unscaled"]["reference_ms"] for r in runs],
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
        }
        for m in SPEC["end_to_end"]:
            s = end_to_end[m["name"]]
            print(f"{workload:16s} {m['name']:12s} median {s['median']:12.5g} "
                  f"spread {s['spread']:.4f} (bound {m['bound']})", flush=True)
    path = Path(__file__).resolve().parent / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
