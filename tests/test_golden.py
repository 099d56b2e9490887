"""Byte equality of every CLI invocation recorded under perfbench/golden/."""

import pytest

from perfbench.golden import GOLDEN_DIR, cases
from perfbench.workloads import cli_output

CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_bytes(name):
    assert cli_output(CASES[name]) == (GOLDEN_DIR / name).read_text()
