"""tools/code_lines.py counts code lines: not blank, not comment, not docstring, now and at a
git revision."""

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


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=test",
                    "-c", "user.email=test@example.com", *args], capture_output=True, check=True)


def code_lines(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), *args],
                          capture_output=True, text=True, cwd=cwd)


def test_against_a_revision_counts_each_module_at_it_and_now(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "shapes.py").write_text(FIXTURE)
    (package / "kept.py").write_text("x = 1\n")
    (package / "gone.py").write_text("x = 1\ny = 2\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", ".")
    git(tmp_path, "commit", "-q", "-m", "first")
    (package / "shapes.py").write_text(FIXTURE + "\n\ndef unit():\n    return 1\n")  # edited
    (package / "added.py").write_text("y = 2\nz = 3\n")
    (package / "gone.py").unlink()
    # run from this repository: the revision is read from the one that holds the directory
    proc = code_lines("--against", "HEAD", str(package))
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["module", "HEAD", "now", "diff"],
        ["added", "0", "2", "+2"],
        ["gone", "2", "0", "-2"],
        ["kept", "1", "1", "+0"],
        ["shapes", "4", "6", "+2"],
        ["total", "7", "9", "+2"]]


def test_against_an_unknown_revision_exits_with_gits_message(tmp_path):
    git(tmp_path, "init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    git(tmp_path, "add", ".")
    git(tmp_path, "commit", "-q", "-m", "first")
    proc = code_lines("--against", "no-such-rev", str(tmp_path))
    assert proc.returncode != 0 and proc.stdout == ""
    assert proc.stderr.startswith("fatal: ") and "no-such-rev" in proc.stderr
