"""tools/point_walltime.py spawns one process per checkout and prints each step's median."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_round_of_this_checkout():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "point_walltime.py"), "-n", "1"],
                         capture_output=True, text=True, check=True).stdout
    legend, header, *rows = out.splitlines()
    assert legend == f"checkout 1: {ROOT}"
    assert header.split() == ["step", "checkout", "1"]
    rows = [line.rsplit(None, 2) for line in rows]
    assert [row[0] for row in rows] == ["solve_ac", "calibration_step", "calibrate_return_scale",
                                        "calibrate_anechoic_boost", "45 max_detection_distance",
                                        "crossover", "40 load_config", "ladder_sweep",
                                        "resistive_sweep"]
    assert all(row[2] == "us" and float(row[1]) > 0.0 for row in rows)
