"""List the statements of a package that no test executes.

    python3 tools/line_audit.py [--source DIR] [PYTEST_ARGS...]

runs pytest in this process on PYTEST_ARGS (default: ``tests perfbench``)
under a line tracer limited to the files under DIR (default: this
repository's ``src/eqshbc``), whose parent directory is put first on the
path so that the tests import the traced files. It then prints each
statement line of the ``*.py`` files under DIR that no test executed, as
``path:line: statement``, then their count, and exits with pytest's code.

A statement line is the first line of a statement that compiles to code.
Docstrings, ``def`` and ``class`` headers and imports are left out: they
run when the module is imported. The tracer is set again before each
test, since a test, or a library that it calls, may replace it: one set
only before the run is lost part-way, and the lines run after that read
as unreached.
"""

import argparse
import ast
import os
import sys
from pathlib import Path

import pytest
from code_lines import _docstring_lines

ROOT = Path(__file__).resolve().parents[1]
# Statements that run when their module is imported, whatever the tests do
_ON_IMPORT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _code_lines(code) -> set[int]:
    """The lines that code, and the code objects nested in it, have instructions on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statement_lines(path: Path) -> set[int]:
    """The first line of each statement of the module at path that compiles to code, less its
    docstrings, def and class headers and imports."""
    source = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt) and not isinstance(node, _ON_IMPORT)}
    return (starts - _docstring_lines(source)) & _code_lines(compile(source, str(path), "exec"))


def _tracer(root: str):
    """A sys.settrace function that records the lines run in each file under root, and the
    {real path: set of lines} that it records into."""
    executed: dict[str, set[int]] = {}
    local_of: dict[str, object] = {}  # the local tracer of each code file name, or None

    def recorder(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in local_of:
            path = os.path.realpath(name)
            inside = path.startswith(root)
            local_of[name] = recorder(executed.setdefault(path, set())) if inside else None
        return local_of[name]

    return tracer, executed


class _Rearm:
    """A pytest plugin that sets the tracer again before each test."""

    def __init__(self, tracer):
        self.tracer = tracer

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_protocol(self, item, nextitem):
        sys.settrace(self.tracer)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False,
                                     usage="%(prog)s [--source DIR] [PYTEST_ARGS...]")
    parser.add_argument("--source", type=Path, default=ROOT / "src" / "eqshbc",
                        help="the directory whose files are traced (default: src/eqshbc)")
    args, pytest_args = parser.parse_known_args(argv)
    source = Path(os.path.realpath(args.source))
    sys.path.insert(0, str(source.parent))  # the tests import the traced files, not a copy
    tracer, executed = _tracer(str(source) + os.sep)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args or ["tests", "perfbench"], plugins=[_Rearm(tracer)])
    finally:
        sys.settrace(None)
    unreached = 0
    for path in sorted(source.rglob("*.py")):
        lines = path.read_text().splitlines()
        for line in sorted(statement_lines(path) - executed.get(str(path), set())):
            print(f"{os.path.relpath(path)}:{line}: {lines[line - 1].strip()}")
            unreached += 1
    print(f"unreached statement lines: {unreached}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
