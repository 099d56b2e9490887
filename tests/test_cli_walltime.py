"""tools/cli_walltime.py spawns each timed command and prints its median."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_spawn_per_command():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_walltime.py"), "-n", "1"],
                         capture_output=True, text=True, check=True).stdout
    rows = [line.rsplit(None, 2) for line in out.splitlines()]
    assert [row[0] for row in rows] == ["attack", "sir", "fcc --freq", "fcc", "sweep", "regions",
                                        "regions -s"]
    assert all(row[2] == "ms" and float(row[1]) > 0.0 for row in rows)
