import pytest

from eqshbc import solver


@pytest.fixture
def solve_calls(monkeypatch):
    """Frequency points solved by the MNA core, as (call number, f), one entry per point.

    Every solve, a sweep or a single-frequency one, goes through the core, so
    the list length is the number of points solved; the call numbers tell
    the batched calls apart.
    """
    points = []
    calls = 0
    original = solver._solve_grid

    def counting(stamp, freqs):
        nonlocal calls
        points.extend((calls, float(f)) for f in freqs)
        calls += 1
        return original(stamp, freqs)

    monkeypatch.setattr(solver, "_solve_grid", counting)
    return points
