"""The closed-form path runs without numpy: the CLI import, the benchmark's
set-up code, and the attack, sir and fcc --freq commands load no circuit layer."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from perfbench.golden import GOLDEN_DIR, cases

ROOT = Path(__file__).resolve().parents[1]
# this checkout's sources first, whatever else the path holds
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
CIRCUIT_LAYER = ("eqshbc.solver", "eqshbc.bodychannel", "eqshbc.multiregion")

# Runs with numpy blocked: an import of it raises ImportError. Reads the set-up
# code and the argv lists as JSON on stdin; writes the outputs and the loaded
# eqshbc modules as JSON.
CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
given = json.load(sys.stdin)
for code in given["setup"]:
    exec(code, {})
from eqshbc import cli
outputs = {}
for name, argv in given["argv"].items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, name
    outputs[name] = out.getvalue()
json.dump({"outputs": outputs, "modules": sorted(sys.modules)}, sys.stdout)
"""


def benchmark_setup_code() -> str:
    """SETUP_CODE of perfbench/run.py, read without importing it (it pins BLAS threads)."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "SETUP_CODE")


def test_setup_attack_and_sir_without_numpy():
    setup = benchmark_setup_code()
    assert "config.load_config('inter_body.cfg')" in setup
    golden = {name: argv for name, argv in cases().items()
              if name in ("attack.json", "sir.json", "fcc-freq.json")}
    given = {"setup": [setup, setup.replace("inter_body.cfg", "intra_body.cfg")],
             "argv": golden}
    result = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(given),
                            capture_output=True, text=True, cwd=ROOT, env=ENV)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    child = json.loads(result.stdout)
    assert child["outputs"] == {name: (GOLDEN_DIR / name).read_text() for name in golden}
    assert [name for name in child["modules"] if name in CIRCUIT_LAYER] == []
    assert [name for name in child["modules"] if name.startswith("numpy.")] == []
