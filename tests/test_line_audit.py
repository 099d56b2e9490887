"""tools/line_audit.py lists the statement lines of a package that no test executes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MODULE = '''"""A module of two branches."""

import math


def sign(x):
    """The sign of x, as a word."""
    if math.copysign(1.0, x) < 0:
        return "negative"
    return "positive"
'''

# The first test drops every tracer, as a test may; the audit sets its own again for the next.
TEST = '''import sys

from pkg.branches import sign


def test_drops_the_tracer():
    sys.settrace(None)


def test_positive():
    assert sign(2.0) == "positive"
'''


def test_lists_the_branch_that_no_test_takes(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "branches.py").write_text(MODULE)
    (tmp_path / "test_branches.py").write_text(TEST)
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "line_audit.py"),
                           "--source", "pkg", "-q", "-p", "no:cacheprovider", "test_branches.py"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the docstrings, the import and the def header run on import and are not listed
    assert proc.stdout.splitlines()[-2:] == [
        f"{Path('pkg', 'branches.py')}:9: return \"negative\"", "unreached statement lines: 1"]
