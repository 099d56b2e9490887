"""Byte-exact golden outputs of the ``eqshbc`` CLI.

The cases cover the bundled inter-body scenario in both environments with
both load kinds at the default grid, plus one invocation of each other
subcommand. The files under ``golden/`` were recorded from the code the
benchmark was introduced against; re-record them only for an intended
output change, from the repository root:

    PYTHONPATH=src python3 -m perfbench.golden
"""

from __future__ import annotations

import traceback
from pathlib import Path

from .workloads import ROOT, cli_output

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def cases() -> dict[str, list[str]]:
    out = {}
    for env in ("open_air", "anechoic"):
        for load in ("capacitive:1e-12", "resistive:50"):
            out[f"sweep-{env}-{load.split(':')[0]}.csv"] = [
                "sweep", "--scenario", "inter_body.cfg", "--env", env, "--load", load]
        regions = ["regions", "--scenario", "inter_body.cfg", "--env", env]
        out[f"regions-{env}.json"] = regions
        out[f"regions-{env}-sensitivity.json"] = regions + ["--sensitivity-db", "-90"]
    out["solve-rc_divider.csv"] = [
        "solve", "--netlist", str(ROOT / "src" / "eqshbc" / "data" / "rc_divider.cir"),
        "--probe", "2,0"]
    out["attack.json"] = ["attack", "--snr", "30", "--distance", "1.5",
                          "--config", "inter_body.cfg"]
    out["sir.json"] = ["sir", "--v-sig", "1", "--interferer", "1:2", "--interferer", "0.5:5",
                       "--v-each", "0.5", "--d-each", "3", "--sir-min", "10"]
    out["fcc-freq.json"] = ["fcc", "--freq", "5e5"]
    out["fcc-grid.json"] = ["fcc", "--config", "inter_body.cfg"]
    return out


def check() -> list[str]:
    """Names of the cases whose output differs from the recorded bytes."""
    mismatched = []
    for name, argv in cases().items():
        want = (GOLDEN_DIR / name).read_text()
        try:
            got = cli_output(argv)
        except Exception:  # a crash or non-zero exit is a mismatch like any other
            traceback.print_exc()
            got = None
        if got != want:
            mismatched.append(name)
    return mismatched


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in cases().items():
        (GOLDEN_DIR / name).write_text(cli_output(argv))


if __name__ == "__main__":
    record()
