"""tools/code_lines.py counts code lines: not blank, not comment, not docstring."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment does not hide the code

# a comment line


def area(r):
    """Function docstring."""
    return (math.pi
            * r * r)
'''


def test_counts_each_module_and_the_total(tmp_path):
    (tmp_path / "shapes.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    # shapes.py: the import, the def and the two lines of the return
    assert [line.split() for line in out.splitlines()] == [
        ["a", "1"], ["shapes", "4"], ["total", "5"]]
