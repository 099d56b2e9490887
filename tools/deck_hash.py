"""Hash what the benchmark's operations return, one sha256 per workload.

    python3 tools/deck_hash.py --seed 1 --passes 2 [--workload NAME ...]

runs, untimed and unchecked, every operation of the decks that
``perfbench/run.py --seed S`` draws for its first N passes, and prints one
line ``<workload> <sha256>`` per workload: the hash of the ``repr`` of each
operation's output, in deck order. Two checkouts that print the same lines
return the same outputs, byte for byte, on those decks. ``--workload NAME``,
repeatable, hashes only the named workloads, in the benchmark's order; the
default is all of them. The scenario files that the decks write under
``.perfbench/inputs`` are removed afterwards.
"""

import argparse
import hashlib
import random
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=_positive, default=1)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS),
                        help="hash only this workload; repeatable (default: all)")
    args = parser.parse_args(argv)
    chosen = args.workload or workloads.WORKLOADS
    try:
        for name, build in workloads.WORKLOADS.items():
            if name not in chosen:
                continue
            digest = hashlib.sha256()
            for pass_index in range(args.passes):
                # the deck that perfbench/run.py draws for this seed and pass
                for op in build(random.Random(f"{args.seed}/{pass_index}")):
                    digest.update(repr(op.run()).encode() + b"\n")
            print(name, digest.hexdigest())
    finally:
        shutil.rmtree(workloads.INPUT_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
