"""Count the code lines of a directory of Python modules.

    python3 tools/code_lines.py [DIRECTORY]

prints the code lines of each ``*.py`` module in DIRECTORY (default:
``src/eqshbc``), then their total. A code line is a line that a token
other than a comment starts on, ends on or runs through, and that is not
part of a docstring. A docstring here is a string literal that is the
first statement of any body: a module, class or function, or a block
such as an ``if``. Blank lines and comment lines do not count.
"""

import ast
import io
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


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "eqshbc"
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(root.glob("*.py"))}
    width = max(map(len, [*counts, "total"]))
    for module, count in counts.items():
        print(f"{module:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
