"""The MNA stamp and its solutions stay behind ``eqshbc.solver``.

Every other module takes a probe's gain through ``solver._probe_gain`` or
``solver.transfer``; none builds, restamps or solves a stamp itself, or
reads a stamp's row map (its ``topology``).
"""
import ast
from pathlib import Path

import pytest

import eqshbc

PACKAGE = Path(eqshbc.__file__).parent
SOLVER_ONLY = {"_stamp", "_build_stamp", "_solve_grid", "_restamp"}


def solver_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each use of a solver-only name, or of a ``.topology`` read."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in SOLVER_ONLY:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and (node.attr in SOLVER_ONLY
                                                  or node.attr == "topology"):
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.alias) and node.name in SOLVER_ONLY:
            found.append((node.lineno, node.name))
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "solver.py"))
def test_no_module_but_the_solver_touches_the_stamp(module):
    assert solver_names((PACKAGE / module).read_text()) == []


def test_the_check_sees_each_kind_of_use():
    source = ("from .solver import _restamp\n"
              "x = solver._solve_grid(solver._stamp(net), f)\n"
              "rows = stamp.topology.index\n"
              "_build_stamp(net)\n")
    assert sorted(solver_names(source)) == [(1, "_restamp"), (2, "._solve_grid"), (2, "._stamp"),
                                            (3, ".topology"), (4, "_build_stamp")]
