"""tools/deck_hash.py hashes what the benchmark's operations return, one line per workload."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def deck_hash(*args: str) -> list[str]:
    return subprocess.run([sys.executable, str(ROOT / "tools" / "deck_hash.py"), *args],
                          capture_output=True, text=True, check=True, cwd=ROOT).stdout.splitlines()


def test_one_seed_hashes_alike_twice_and_leaves_no_inputs():
    first = deck_hash("--seed", "5", "--passes", "1")
    assert [line.split()[0] for line in first] == ["region_sweeps", "ladder_netlists",
                                                   "point_analyses"]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in first)
    assert deck_hash("--seed", "5", "--passes", "1") == first
    assert not (ROOT / ".perfbench" / "inputs").exists()
    # another seed draws other decks
    assert deck_hash("--seed", "6", "--passes", "1") != first


def test_workload_option_hashes_only_the_named_workloads_in_benchmark_order():
    every = dict(line.split() for line in deck_hash("--seed", "5", "--passes", "1"))
    one = deck_hash("--seed", "5", "--workload", "ladder_netlists")
    assert one == [f"ladder_netlists {every['ladder_netlists']}"]
    two = deck_hash("--seed", "5", "--workload", "point_analyses", "--workload", "region_sweeps",
                    "--workload", "point_analyses")
    assert two == [f"{name} {every[name]}" for name in ("region_sweeps", "point_analyses")]
    assert not (ROOT / ".perfbench" / "inputs").exists()


def test_unknown_workload_exits_2_naming_the_workloads():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "deck_hash.py"), "--seed", "5",
                          "--workload", "nosuch"], capture_output=True, text=True, cwd=ROOT)
    assert run.returncode == 2 and run.stdout == ""
    assert ("argument --workload: invalid choice: 'nosuch' (choose from 'region_sweeps', "
            "'ladder_netlists', 'point_analyses')") in run.stderr
