"""Median wall time of spawned ``eqshbc`` commands.

    python3 tools/cli_walltime.py [-n N] [CHECKOUT]

spawns ``python3 -m eqshbc.cli`` N times (default 21) for each of the
attack, sir, fcc --freq, fcc (the grid report), sweep, regions and
regions --sensitivity-db invocations of the golden outputs in
``perfbench/golden.py``, with the sources of CHECKOUT (default:
this checkout) on the path and stdout discarded. The commands take turns,
one run of each per round, so a drift in machine speed reaches them
alike. It prints each command's median in milliseconds.
"""

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
# command -> the golden case whose argv it runs
COMMANDS = {"attack": "attack.json", "sir": "sir.json", "fcc --freq": "fcc-freq.json",
            "fcc": "fcc-grid.json", "sweep": "sweep-open_air-capacitive.csv",
            "regions": "regions-open_air.json",
            "regions -s": "regions-open_air-sensitivity.json"}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=21, help="spawns per command")
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.golden import cases

    golden = cases()
    env = dict(os.environ, PYTHONPATH=str(args.checkout.resolve() / "src"))
    times: dict[str, list[float]] = {command: [] for command in COMMANDS}
    for _ in range(args.n):
        for command, case in COMMANDS.items():
            t0 = perf_counter()
            subprocess.run([sys.executable, "-m", "eqshbc.cli", *golden[case]], env=env,
                           cwd=args.checkout, check=True, stdout=subprocess.DEVNULL)
            times[command].append(perf_counter() - t0)
    for command, seconds in times.items():
        print(f"{command:<10}  {statistics.median(seconds) * 1e3:8.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
