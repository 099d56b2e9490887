"""Count the code lines of a directory of Python modules.

    python3 tools/code_lines.py [--against REV] [DIRECTORY]

prints the code lines of each ``*.py`` module in DIRECTORY (default:
``src/eqshbc``), then their total. With ``--against REV`` it prints each
module's code lines at the git revision REV, now, and the difference,
then the totals; REV is read with ``git show REV:<path>`` from the
repository that holds DIRECTORY, and a module missing on one side counts
0 there. An unknown REV exits 1 with git's message.

A code line is a line that a token other than a comment starts on, ends
on or runs through, and that is not part of a docstring. A docstring
here is a string literal that is the first statement of any body: a
module, class or function, or a block such as an ``if``. Blank lines and
comment lines do not count.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_NOT_CODE = frozenset((tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                       tokenize.DEDENT, tokenize.ENDMARKER))


def _docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            first = body[0]
            if isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines = {line for token in tokens if token.type not in _NOT_CODE
             for line in range(token.start[0], token.end[0] + 1)}
    return len(lines - _docstring_lines(source))


def _git(root: Path, *args: str) -> str:
    """The output of git run in root; a failing git exits with its message."""
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(proc.stderr.strip())
    return proc.stdout


def _counts_at(rev: str, root: Path) -> dict[str, int]:
    """The code lines of each ``*.py`` module of root as it is at the git revision rev."""
    entries = (line.split("\t", 1) for line in _git(root, "ls-tree", rev, "./").splitlines())
    return {Path(name).stem: code_lines(_git(root, "show", f"{rev}:./{name}"))
            for kind, name in entries if kind.split()[1] == "blob" and name.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of Python modules.")
    parser.add_argument("directory", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src" / "eqshbc")
    parser.add_argument("--against", metavar="REV",
                        help="also count each module at this git revision, and the difference")
    args = parser.parse_args(argv)
    root = args.directory
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(root.glob("*.py"))}
    if args.against is None:
        width = max(map(len, [*counts, "total"]))
        for module, count in counts.items():
            print(f"{module:<{width}}  {count:>5}")
        print(f"{'total':<{width}}  {sum(counts.values()):>5}")
        return 0
    before = _counts_at(args.against, root)
    rows = [(module, before.get(module, 0), counts.get(module, 0))
            for module in sorted(before.keys() | counts.keys())]
    rows.append(("total", sum(before.values()), sum(counts.values())))
    width = max(len("module"), *(len(row[0]) for row in rows))
    rev = max(len(args.against), 5)
    print(f"{'module':<{width}}  {args.against:>{rev}}  {'now':>5}  {'diff':>5}")
    for module, old, new in rows:
        print(f"{module:<{width}}  {old:>{rev}}  {new:>5}  {new - old:>+5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
