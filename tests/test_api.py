"""Every exported name resolves, including the names the benchmark calls.

``perfbench/tracing.py`` wraps every ``__all__`` entry of each module, so a
stale entry breaks a traced benchmark run before any test would notice.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import eqshbc
from eqshbc import multiregion

MODULES = sorted(info.name for info in pkgutil.iter_modules(eqshbc.__path__))
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"eqshbc.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_public_names():
    # The package exports lazily, from a name -> submodule table.
    assert eqshbc._EXPORTS
    for name, module_name in eqshbc._EXPORTS.items():
        module = importlib.import_module(f"eqshbc.{module_name}")
        assert getattr(eqshbc, name) is getattr(module, name)
        assert name in module.__all__, f"{module_name}.{name} is not public"
    assert set(eqshbc._EXPORTS) <= set(dir(eqshbc))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        eqshbc.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from eqshbc import no_such_name  # noqa: F401
    # an unknown name is an AttributeError, so "from eqshbc import <submodule>" imports it
    for name in MODULES:
        assert getattr(__import__("eqshbc", fromlist=[name]), name).__name__ == f"eqshbc.{name}"


def test_benchmark_names_resolve():
    tree = ast.parse(WORKLOADS.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "eqshbc"
               for alias in node.names}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {("multiregion", "max_detection_distance"), ("multiregion", "DETECTION_DISTANCE_CAP_M"),
            ("bodychannel", "intra_body_gain_db"), ("bodychannel", "inter_body_gain_db"),
            ("bodychannel", "DEFAULT_COUPLING_ANCHORS"),
            ("bodychannel", "DEFAULT_COUPLING_D0")} <= used
    missing = [f"{mod}.{attr}" for mod, attr in sorted(used)
               if not hasattr(importlib.import_module(f"eqshbc.{mod}"), attr)]
    assert missing == []
    # Called on an instance, so not seen as module.name above.
    assert callable(multiregion.RegionConfig.mechanism_gains_db)
