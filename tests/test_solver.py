import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circuit_oracle import brute_force_voltages, random_rc_network
from eqshbc.bodychannel import (
    INTER_PROBE,
    SOURCE_LABEL,
    BodyChannelParams,
    InterBodyParams,
    LoadSpec,
    build_inter_body,
    calibrate_return_scale,
    inter_body_gain_db,
    intra_body_gain_db,
)
from eqshbc.multiregion import default_region_config
from eqshbc import solver
from eqshbc.netlist import Element, Netlist, parse_netlist
from eqshbc.solver import (
    AdmittanceSpanError,
    FrequencyGrid,
    SingularCircuitError,
    SweepResult,
    solve_ac,
    sweep_csv,
    transfer,
)


def netlist_from_tuples(elements):
    counter = {}
    built = []
    for kind, a, b, value in elements:
        counter[kind] = counter.get(kind, 0) + 1
        built.append(Element(kind, value, (a, b), f"{kind}{counter[kind]}"))
    return Netlist(elements=tuple(built))


DIVIDER = parse_netlist("V1 1 0 1.0\nR1 1 2 1000\nR2 2 0 1000")
RC_POLE = parse_netlist("V1 1 0 1.0\nR1 1 2 1k\nC1 2 0 1n")


class TestSolveAc:
    def test_equal_resistor_divider_is_half_at_any_f(self):
        for f in (10.0, 1e3, 1e6, 1e9):
            sol = solve_ac(DIVIDER, f)
            assert sol[2] == pytest.approx(0.5 + 0j, abs=1e-12)

    def test_rc_pole_minus_3db(self):
        # closed form: |H| = 1/sqrt(2) at f = 1/(2 pi R C)
        f_pole = 1.0 / (2.0 * math.pi * 1e3 * 1e-9)
        assert f_pole == pytest.approx(159.155e3, rel=1e-4)
        sol = solve_ac(RC_POLE, f_pole)
        gain_db = 20.0 * math.log10(abs(sol[2]))
        assert gain_db == pytest.approx(-3.0103, abs=1e-3)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            solve_ac(DIVIDER, 0.0)
        with pytest.raises(ValueError):
            solve_ac(DIVIDER, -1e3)

    def test_ground_voltage_is_zero(self):
        sol = solve_ac(RC_POLE, 1e5)
        assert sol[0] == 0j

    def test_source_current_reported(self):
        sol = solve_ac(DIVIDER, 1e3)
        # 1 V across 2 kOhm; MNA convention: branch current flows out of n+
        assert abs(sol.source_currents["V1"]) == pytest.approx(0.5e-3, rel=1e-9)

    def test_singular_circuit_reports_offending_nodes(self):
        # two series capacitors leave node 2 with no DC path, but still solvable;
        # a genuinely singular case is a source loop fighting itself
        net = Netlist(elements=(
            Element("V", 1.0, (1, 0), "V1"),
            Element("V", 2.0, (1, 0), "V2"),
            Element("R", 50.0, (1, 0), "R1"),
        ))
        with pytest.raises(SingularCircuitError):
            solve_ac(net, 1e3)

    def test_ill_conditioned_attaches_warning(self):
        net = parse_netlist("V1 1 0 1.0\nR1 1 2 1e-12\nC1 2 0 1e-18")
        sol = solve_ac(net, 1.0)
        assert sol.warnings and "cond" in sol.warnings[0]
        # the solve itself still succeeds rather than failing
        assert abs(sol[2]) == pytest.approx(1.0, rel=1e-6)


class TestOracleEquivalence:
    def test_100_random_rc_networks_match_brute_force(self):
        rng = np.random.default_rng(20260811)
        checked = 0
        for _ in range(120):
            elements = random_rc_network(rng)
            net = netlist_from_tuples(elements)
            for f in 10.0 ** rng.uniform(4.0, 7.0, size=3):
                expected = brute_force_voltages(elements, f)
                got = solve_ac(net, f)
                scale = max(abs(v) for v in expected.values())
                for node, v in expected.items():
                    assert abs(got[node] - v) <= 1e-9 * scale
            checked += 1
        assert checked >= 100

    def test_kcl_residual_below_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            elements = random_rc_network(rng)
            net = netlist_from_tuples(elements)
            f = 10.0 ** rng.uniform(4.0, 7.0)
            sol = solve_ac(net, f)
            omega = 2.0 * math.pi * f
            residual = {n: 0j for n in net.nodes() if n != 0}
            max_branch = 0.0
            for e in net.elements:
                a, b = e.nodes
                if e.kind == "V":
                    current = sol.source_currents[e.label]
                else:
                    y = 1.0 / e.value if e.kind == "R" else 1j * omega * e.value
                    current = (sol[a] - sol[b]) * y
                max_branch = max(max_branch, abs(current))
                if a != 0:
                    residual[a] += current
                if b != 0:
                    residual[b] -= current
            for node, r in residual.items():
                assert abs(r) < 1e-9 * max_branch, f"KCL violated at node {node}"


class TestPassivityAndReciprocity:
    def test_rc_only_gain_never_exceeds_source(self):
        # General RC graphs can overshoot unity by a hair (worst observed
        # 1.00021, confirmed by exact symbolic solve), so the passivity
        # check allows 0.01 dB of headroom.
        rng = np.random.default_rng(99)
        for _ in range(40):
            elements = random_rc_network(rng)
            net = netlist_from_tuples(elements)
            f = 10.0 ** rng.uniform(4.0, 7.0)
            sol = solve_ac(net, f)
            nodes = sorted(net.nodes())
            for i, a in enumerate(nodes):
                for b in nodes[i + 1:]:
                    assert abs(sol[a] - sol[b]) <= 1.0 + 1.2e-3

    def test_rc_ladder_gain_strictly_bounded(self):
        # series-shunt ladders obey the strict bound
        rng = np.random.default_rng(11)
        for _ in range(20):
            elements = [("V", 1, 0, 1.0)]
            n = int(rng.integers(2, 7))
            for k in range(1, n):
                kind = ["R", "C"][int(rng.integers(0, 2))]
                val = 10.0 ** rng.uniform(2.0, 5.0) if kind == "R" else 10.0 ** rng.uniform(-10.0, -8.0)
                elements.append((kind, k, k + 1, val))
                kind = ["R", "C"][int(rng.integers(0, 2))]
                val = 10.0 ** rng.uniform(2.0, 5.0) if kind == "R" else 10.0 ** rng.uniform(-10.0, -8.0)
                elements.append((kind, k + 1, 0, val))
            net = netlist_from_tuples(elements)
            sol = solve_ac(net, 10.0 ** rng.uniform(4.0, 7.0))
            for node in net.nodes():
                assert abs(sol[node]) <= 1.0 + 1e-9

    def test_reciprocity_with_matched_terminations(self):
        # identical source resistance at whichever port is driven, the other
        # port terminated in the same resistance; transfer must be symmetric
        rng = np.random.default_rng(5)
        r_port = 50.0
        for _ in range(25):
            core = [e for e in random_rc_network(rng) if e[0] != "V"]
            nodes = sorted({n for e in core for n in (e[1], e[2])} - {0})
            if len(nodes) < 2:
                continue
            pa, pb = nodes[0], nodes[-1]

            def gain(drive, probe):
                elements = ([("V", 90, 0, 1.0), ("R", 90, drive, r_port),
                             ("R", probe, 0, r_port)] + core)
                sol = solve_ac(netlist_from_tuples(elements), 250e3)
                return sol[probe]

            forward, reverse = gain(pa, pb), gain(pb, pa)
            scale = max(abs(forward), abs(reverse), 1e-30)
            assert abs(forward - reverse) <= 1e-9 * scale


class TestTransfer:
    def test_probe_across_source_is_unity(self):
        grid = FrequencyGrid.log(1e4, 1e7, 13)
        res = transfer(RC_POLE, "V1", (1, 0), grid)
        for g in res.gain:
            assert g == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_probe_polarity_swap_negates_gain(self):
        grid = FrequencyGrid.log(1e4, 1e7, 13)
        fwd = transfer(RC_POLE, "V1", (2, 0), grid)
        rev = transfer(RC_POLE, "V1", (0, 2), grid)
        for a, b in zip(fwd.gain, rev.gain):
            assert a == pytest.approx(-b, rel=1e-12)

    def test_divider_rolls_off_at_20db_per_decade(self):
        grid = FrequencyGrid.log(1e4, 1e7, 61)
        res = transfer(RC_POLE, "V1", (2, 0), grid)
        db = res.gain_db()
        assert all(b < a for a, b in zip(db, db[1:]))  # monotone decreasing
        # asymptotic slope well above the 159 kHz pole
        f = np.asarray(res.freqs)
        tail = f > 3e6
        slope = np.polyfit(np.log10(f[tail]), db[tail], 1)[0]
        assert slope == pytest.approx(-20.0, abs=0.5)

    def test_unknown_source_or_probe_rejected(self):
        grid = FrequencyGrid.log(1e4, 1e5, 3)
        with pytest.raises(KeyError):
            transfer(RC_POLE, "V9", (2, 0), grid)
        with pytest.raises(ValueError):
            transfer(RC_POLE, "V1", (9, 0), grid)


class TestGridAndCsv:
    def test_log_grid_default_covers_band(self):
        grid = FrequencyGrid.log()
        assert grid.points[0] == pytest.approx(1e5)
        assert grid.points[-1] == pytest.approx(1e9)
        assert len(grid) == 200

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            FrequencyGrid(points=())
        with pytest.raises(ValueError):
            FrequencyGrid(points=(0.0, 1.0))
        with pytest.raises(ValueError):
            FrequencyGrid(points=(2.0, 1.0))

    def test_sweep_result_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            SweepResult(freqs=(1.0, 2.0), gain=(1 + 0j,))

    def test_csv_shape_and_determinism(self):
        grid = FrequencyGrid.log(1e4, 1e6, 5)
        res = transfer(RC_POLE, "V1", (2, 0), grid)
        text = sweep_csv(res)
        lines = text.strip().splitlines()
        assert lines[0] == "freq_hz,gain_re,gain_im,gain_db,phase_deg"
        assert len(lines) == 6
        assert text == sweep_csv(transfer(RC_POLE, "V1", (2, 0), grid))

    def test_csv_region_column(self):
        grid = FrequencyGrid.log(1e4, 1e6, 3)
        res = transfer(RC_POLE, "V1", (2, 0), grid)
        text = sweep_csv(res, regions=["EQS", "EQS", "EQS"])
        assert text.splitlines()[0].endswith(",region")
        with pytest.raises(ValueError):
            sweep_csv(res, regions=["EQS"])


def reference_sweep_csv(result, regions=None):
    """sweep_csv written row by row with f-strings, as an independent oracle."""
    header = "freq_hz,gain_re,gain_im,gain_db,phase_deg" + ("" if regions is None else ",region")
    lines = [header]
    db = result.gain_db().tolist()
    ph = np.degrees(np.angle(result.gain)).tolist()
    for i, (f, g) in enumerate(zip(result.freqs.tolist(), result.gain.tolist())):
        row = f"{f:.9g},{g.real:.9g},{g.imag:.9g},{db[i]:.9g},{ph[i]:.9g}"
        if regions is not None:
            row += f",{regions[i]}"
        lines.append(row)
    return "\n".join(lines) + "\n"


# Gain parts: signed zeros, subnormal, tiny and huge values; a zero gain reads -inf dB.
GAIN_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e-300, -1e300, 1e300]),
                       st.floats(-1e300, 1e300))


@st.composite
def sweeps(draw):
    freqs = draw(st.lists(st.floats(1e-3, 1e12), max_size=12))
    gain = [complex(draw(GAIN_PARTS), draw(GAIN_PARTS)) for _ in freqs]
    labels = st.text(st.sampled_from("EQSM_%s,\u00e9"), max_size=6)
    regions = draw(st.one_of(st.none(),
                             st.lists(labels, min_size=len(freqs), max_size=len(freqs))))
    return SweepResult(freqs=freqs, gain=gain), regions


class TestSweepCsvOracle:
    @settings(max_examples=200, deadline=None)
    @given(sweeps())
    def test_bytes_equal_the_row_by_row_rendering(self, sweep):
        result, regions = sweep
        assert sweep_csv(result, regions) == reference_sweep_csv(result, regions)


def ladder(sections, r, c, l=None):
    """Series R (paralleled by L when given) with shunt C at every node, driven at node 1."""
    elements = [("V", 1, 0, 1.0)]
    for k in range(1, sections + 1):
        elements += [("R", k, k + 1, r * (1.0 + 0.1 * k)), ("C", k + 1, 0, c * (1.0 + 0.05 * k))]
        if l is not None:
            elements.append(("L", k, k + 1, l * (1.0 + 0.2 * k)))
    return elements


class TestBatchedSolve:
    """The grid is solved in frequency blocks; results must not depend on the blocking."""

    @settings(max_examples=20, deadline=None)
    @given(sections=st.integers(2, 12),
           r=st.floats(1e1, 1e4), c=st.floats(1e-11, 1e-8),
           l=st.one_of(st.none(), st.floats(1e-6, 1e-2)),
           blocks=st.floats(1.5, 3.5))
    def test_ladders_match_oracle_across_blocks(self, sections, r, c, l, blocks):
        elements = ladder(sections, r, c, l)
        net = netlist_from_tuples(elements)
        # sections + 2 unknowns; a block holds solver._BLOCK_ENTRIES complex matrix entries
        n = int(blocks * solver._BLOCK_ENTRIES / (sections + 2) ** 2)
        corner = 1.0 / (2.0 * math.pi * r * c * sections ** 2)
        grid = FrequencyGrid.log(corner / 100.0, corner * 100.0, n)
        res = transfer(net, "V1", (sections + 1, 0), grid)
        for f, g in zip(grid, res.gain):
            expected = brute_force_voltages(elements, f)
            scale = max(abs(v) for v in expected.values())
            assert abs(g - expected[sections + 1]) <= 1e-9 * scale

    def test_transfer_equals_single_point_solves_bit_for_bit(self):
        cases = [(default_region_config()._netlist, SOURCE_LABEL, INTER_PROBE),
                 (netlist_from_tuples(ladder(20, 1e3, 1e-9, 1e-3)), "V1", (21, 0))]
        for net, source, probe in cases:
            grid = FrequencyGrid.log(1e3, 1e9, 700)
            res = transfer(net, source, probe, grid)
            value = net.source(source).value
            for f, g in zip(grid, res.gain):
                sol = solve_ac(net, f)
                assert g == (sol[probe[0]] - sol[probe[1]]) / value

    def test_warnings_one_per_ill_conditioned_frequency_in_grid_order(self):
        # cond ~ 1/(w*C) crosses 1e12 near 0.08 Hz; the grid spans 2.2 blocks of 3 unknowns,
        # and its offending points more than one
        c1, c2 = 1e-12, 1e-12
        net = parse_netlist(f"V1 1 0 1.0\nC1 1 2 {c1}\nC2 2 0 {c2}")
        block = solver._BLOCK_ENTRIES // 3 ** 2
        grid = FrequencyGrid.log(1e-3, 1.0, int(2.2 * block))
        res = transfer(net, "V1", (2, 0), grid)

        def mna(f):
            jw = 2j * math.pi * f
            return np.array([[jw * c1, -jw * c1, 1.0], [-jw * c1, jw * (c1 + c2), 0.0],
                             [1.0, 0.0, 0.0]])

        offending = [f for f in grid if np.linalg.cond(mna(f)) > 1e12]
        assert block < len(offending) < len(grid)
        assert res.warnings == tuple(
            f"ill-conditioned MNA system at f={f:g} Hz (cond~{np.linalg.cond(mna(f)):.3g})"
            for f in offending)
        assert list(res.warnings) == [w for f in grid for w in solve_ac(net, f).warnings]

    def test_singular_frequency_reported_first_in_later_block(self):
        # series L-C from the source: node 2 has zero admittance at w = 1/sqrt(LC) = 1
        net = parse_netlist("V1 1 0 1.0\nL1 1 2 1\nC1 2 0 1")
        f_res = 1.0 / (2.0 * math.pi)
        # f_res follows 1.5 blocks of 3 unknowns
        below = int(1.5 * (solver._BLOCK_ENTRIES // 3 ** 2))
        points = tuple(np.geomspace(1e-3, 1e-1, below)) + (f_res, 1.0, 10.0)
        with pytest.raises(SingularCircuitError, match=r"f=0\.159155 Hz") as info:
            transfer(net, "V1", (2, 0), FrequencyGrid(points))
        assert info.value.nodes == (2,)
        with pytest.raises(SingularCircuitError, match=r"f=0\.159155 Hz"):
            solve_ac(net, f_res)
        assert solve_ac(net, 1.0)[2] != 0

    def test_lu_failure_reports_its_frequency(self, monkeypatch):
        # a zero pivot that the singular values did not flag still names its frequency
        grid = FrequencyGrid.log(1e3, 1e6, 20)
        bad = grid.points[7]
        c_entry = 2.0 * math.pi * bad * 1e-9  # imag of RC_POLE's node-2 diagonal at bad
        real_solve = np.linalg.solve

        def failing_solve(a, b):
            if np.any(a[..., 1, 1].imag == c_entry):
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        with pytest.raises(SingularCircuitError, match=f"f={bad:g} Hz"):
            transfer(RC_POLE, "V1", (2, 0), grid)

    def test_singular_everywhere_reports_first_grid_point(self):
        net = Netlist(elements=(
            Element("V", 1.0, (1, 0), "V1"),
            Element("V", 2.0, (1, 0), "V2"),
            Element("R", 50.0, (1, 0), "R1"),
        ))
        with pytest.raises(SingularCircuitError, match=r"f=1000 Hz"):
            transfer(net, "V1", (1, 0), FrequencyGrid.log(1e3, 1e6, 50))

    def test_large_ladder_memory_stays_blocked(self):
        # A whole-grid (1000, 66, 66) complex stack would take 70 MB.
        net = netlist_from_tuples(ladder(64, 1e3, 1e-9, 1e-3))
        grid = FrequencyGrid.log(1e3, 1e7, 1000)
        tracemalloc.start()
        try:
            res = transfer(net, "V1", (65, 0), grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res.gain) == 1000
        assert peak < 2 * 2 ** 20

    def test_one_screen_per_grid(self, monkeypatch):
        # the certificate screens the whole grid at once, however many blocks it spans
        screened = []
        real_uncleared = solver._uncleared
        monkeypatch.setattr(solver, "_uncleared", lambda cert, omega: screened.append(
            np.size(omega)) or real_uncleared(cert, omega))
        net = netlist_from_tuples(ladder(10, 1e3, 1e-9, 1e-3))
        block = solver._BLOCK_ENTRIES // 12 ** 2
        for n in (1, block, 3 * block + 1):
            screened.clear()
            res = transfer(net, "V1", (11, 0), FrequencyGrid.log(1e3, 1e7, n))
            assert len(res.gain) == n and screened == [n]
        screened.clear()
        solve_ac(net, 1e5)
        assert screened == [1]

    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(1e1, 1e4), c=st.floats(1e-11, 1e-8),
           l=st.one_of(st.none(), st.floats(1e-6, 1e-2)),
           exponents=st.lists(st.floats(-10.0, 9.0), min_size=1, max_size=10, unique=True))
    # the probe voltage's real part is -0.0, which a division by complex(1.0, 0) made +0.0
    @example(r=7696.0, c=6.212601800764992e-09, l=None, exponents=[7.03125])
    def test_three_points_per_block_are_their_point_solves(self, r, c, l, exponents):
        # a ladder of size unknowns takes 3 points per block: grids of 1-10 points end in
        # full and partial blocks, and split the screen's suspects between them; below
        # about 1e-6 Hz some points go to the SVD, and some of those warn
        size = math.isqrt(solver._BLOCK_ENTRIES // 3)
        assert solver._BLOCK_ENTRIES // size ** 2 == 3
        net = netlist_from_tuples(ladder(size - 2, r, c, l))
        points = sorted({10.0 ** e for e in exponents})
        svd = []
        real_svd = np.linalg.svd
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: svd.append(
                1 if a.ndim == 2 else a.shape[0]) or real_svd(a, *args, **kwargs))
            res = transfer(net, "V1", (size - 1, 0), FrequencyGrid(points))
            swept = sum(svd)
            solutions = [solve_ac(net, f) for f in points]
        assert res.gain.tobytes() == np.array([sol[size - 1] for sol in solutions]).tobytes()
        assert res.warnings == tuple(w for sol in solutions for w in sol.warnings)
        assert sum(svd) == 2 * swept


@pytest.fixture
def svd_points(monkeypatch):
    """Matrices passed to np.linalg.svd, counted one per frequency point."""
    points = []
    real_svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        points.append(1 if a.ndim == 2 else a.shape[0])
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return points


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Calls of np.linalg.eigvalsh, one entry per call however many matrices it takes."""
    calls = []
    real_eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def divider_mna(r1, r2, c, f):
    jwc = 2j * math.pi * f * c
    return np.array([[1.0 / r1, -1.0 / r1, 1.0], [-1.0 / r1, 1.0 / r1 + 1.0 / r2 + jwc, 0.0],
                     [1.0, 0.0, 0.0]])


def equal_ladder(sections, r, c, l):
    """``sections`` equal arms of R paralleled by L, each with a shunt C, driven at node 1."""
    return netlist_from_tuples([("V", 1, 0, 1.0)] + [
        element for k in range(1, sections + 1)
        for element in (("R", k, k + 1, r), ("C", k + 1, 0, c), ("L", k, k + 1, l))])


# The RC corner of 64 equal sections of 1 kOhm and 1 nF: 38.9 Hz
LADDER_CORNER = 1.0 / (2.0 * math.pi * 1e3 * 1e-9 * 64 ** 2)


class TestConditionScreen:
    """The certificate clears well-conditioned frequencies; the rest get the exact SVD check."""

    def test_large_ladder_needs_no_svd(self, svd_points):
        net = netlist_from_tuples(ladder(64, 1e3, 1e-9))
        res = transfer(net, "V1", (65, 0), FrequencyGrid.log(1e3, 1e7, 200))
        assert len(res.gain) == 200 and not res.warnings
        assert svd_points == []

    @pytest.mark.parametrize("net, probe, grid, points", [
        # inductors dominate far below the 159 kHz inductive corner, where alpha is lam_G alone
        (equal_ladder(64, 1e3, 1e-9, 1e-3), (65, 0),
         FrequencyGrid.log(LADDER_CORNER / 100.0, LADDER_CORNER * 100.0, 100), 66),
        (equal_ladder(64, 1e3, 1e-9, 1e-3), (65, 0), FrequencyGrid.log(1e2, 1e8, 300), 12),
        (netlist_from_tuples(ladder(8, 1e3, 1e-9, 1e-3)), (9, 0),
         FrequencyGrid.log(1e3, 1e7, 50), 0),
        # Q of about 1000 at 159 kHz, in series and in parallel
        (parse_netlist("V1 1 0 1\nR1 1 2 1\nL1 2 3 1m\nC1 3 0 1n\nR2 3 0 1M"), (3, 0),
         FrequencyGrid.log(1e5, 1e6, 400), 0),
        (parse_netlist("V1 1 0 1\nR1 1 2 1M\nL1 2 0 1m\nC1 2 0 1n"), (2, 0),
         FrequencyGrid.log(1e5, 1e6, 400), 0),
    ])
    def test_rlc_sweeps_send_their_pinned_points_to_the_svd(self, svd_points, net, probe, grid,
                                                            points):
        # a guard on the bound: a looser one would send more of these points to the SVD
        res = transfer(net, "V1", probe, grid)
        assert sum(svd_points) == points and not res.warnings

    def test_warnings_equal_per_point_cond_reference(self, svd_points):
        # cond_2 ~ 2.8 / R1 for R2 = 1 kOhm: R1 from 3e-8 down to 3e-14 ohm puts
        # it between 1e8 and 1e14, with the series R1 far below R2.
        grid = FrequencyGrid.log(1e2, 1e8, 7)
        conds, swept = [], 0
        # and R1 = 1 kOhm, a divider the certificate clears at every frequency
        for r1 in np.geomspace(3e-8, 3e-14, 31).tolist() + [1e3]:
            net = parse_netlist(f"V1 1 0 1.0\nR1 1 2 {r1!r}\nR2 2 0 1000\nC1 2 0 1e-9")
            before = sum(svd_points)
            res = transfer(net, "V1", (2, 0), grid)
            cond = [np.linalg.cond(divider_mna(r1, 1000.0, 1e-9, f)) for f in grid]
            assert res.warnings == tuple(
                f"ill-conditioned MNA system at f={f:g} Hz (cond~{k:.3g})"
                for f, k in zip(grid, cond) if k > 1e12)
            # every frequency the bound cannot clear went through the SVD
            assert sum(svd_points) - before >= sum(k > 1e10 for k in cond)
            conds += cond
            swept += len(grid)
        assert min(conds) < 1e10 and max(conds) > 1e13
        assert sum(1e10 < k <= 1e12 for k in conds) >= 20  # checked by SVD, not warned
        assert 0 < sum(svd_points) < swept

    def test_nan_bound_goes_through_svd(self, monkeypatch, svd_points):
        grid = FrequencyGrid.log(1e3, 1e6, 20)
        clean = transfer(RC_POLE, "V1", (2, 0), grid)
        assert svd_points == []
        real_eigvalsh = np.linalg.eigvalsh

        def nan_eigvalsh(a):
            return real_eigvalsh(a) * math.nan  # a NaN certificate for a fresh stamp

        monkeypatch.setattr(np.linalg, "eigvalsh", nan_eigvalsh)
        twin = parse_netlist("V1 1 0 1.0\nR1 1 2 1k\nC1 2 0 1n")
        res = transfer(twin, "V1", (2, 0), grid)
        assert svd_points == [len(grid)]
        assert np.array_equal(res.gain, clean.gain) and res.warnings == ()
        # the one-point bound, taken in floats, sends its NaN to the SVD too
        point = solve_ac(parse_netlist("V1 1 0 1.0\nR1 1 2 1k\nC1 2 0 1n"), grid.points[7])
        assert svd_points == [len(grid), 1]
        assert point[2] == solve_ac(RC_POLE, grid.points[7])[2] and point.warnings == ()

    def test_resistive_inter_body_load_needs_no_svd(self, svd_points):
        # Node 5 lies between RB and the 50 ohm load, with no capacitor, and G has no
        # path to ground from the receiver's side: lam_G = lam_C = 0, and the anchor clears.
        params = InterBodyParams(BodyChannelParams(load=LoadSpec.resistive(50.0)), c_c=21e-12)
        net = build_inter_body(params)
        grid = FrequencyGrid.log(1e5, 1e9, 300)
        res = transfer(net, SOURCE_LABEL, INTER_PROBE, grid)
        assert svd_points == []
        stamp = solver._stamp(net)
        cert = stamp.certificate
        assert cert.lam_g == cert.lam_c == 0.0 < cert.lam_0
        conds = np.linalg.cond(assembled(stamp, grid.points)).tolist()
        assert res.warnings == tuple(
            f"ill-conditioned MNA system at f={f:g} Hz (cond~{k:.3g})"
            for f, k in zip(grid, conds) if k > 1e12)
        assert all(bound >= cond for bound, cond in zip(cond_bound(cert, grid.points), conds))

    def test_resistive_inter_body_point_solves_need_no_svd(self, monkeypatch):
        # One-point blocks of the anchored stamp clear as the sweep's block does.
        checked = []
        real_check = solver._check_condition
        monkeypatch.setattr(solver, "_check_condition",
                            lambda a, f, points, *rest: checked.append(len(points))
                            or real_check(a, f, points, *rest))
        params = InterBodyParams(BodyChannelParams(load=LoadSpec.resistive(50.0)), c_c=21e-12)
        net = build_inter_body(params)
        grid = FrequencyGrid.log(1e5, 1e9, 45)
        solutions = [solve_ac(net, f) for f in grid]
        assert solver._stamp(net).certificate.lam_0 > 0.0
        assert checked == [] and all(sol.warnings == () for sol in solutions)
        res = transfer(net, SOURCE_LABEL, INTER_PROBE, grid)
        (plus, minus), source = INTER_PROBE, net.source(SOURCE_LABEL)
        want = np.array([sol[plus] - sol[minus] for sol in solutions]) / source.value
        assert checked == [] and res.gain.tobytes() == want.tobytes()

    def test_anchored_point_whose_bound_overflows_warns_nothing(self, svd_points):
        # At 1e170 Hz the bound of the 50 ohm circuit overflows: the point goes to
        # the SVD, and the overflow raises no RuntimeWarning (an error under pytest).
        params = InterBodyParams(BodyChannelParams(load=LoadSpec.resistive(50.0)), c_c=21e-12)
        net = build_inter_body(params)
        for f in (1e170, 1e200):
            assert len(solve_ac(net, f).warnings) == 1
        assert svd_points == [1, 1]

    def test_nan_lam_0_clears_nothing(self):
        stamp = solver._build_stamp(parse_netlist("V1 1 0 1.0\nR1 1 2 1k\nC1 2 0 1n"))
        cert = solver._certificate(stamp)
        omega = 2.0 * math.pi * np.geomspace(1e3, 1e6, 5)
        assert solver._uncleared(cert, omega) == []
        anchored = with_anchor(stamp)
        nan = anchored._replace(lam_0=math.nan)
        assert solver._uncleared(nan, omega) == [0, 1, 2, 3, 4]
        assert solver._uncleared(nan, omega[:1]) == [0]
        # the anchor alone clears every point, but not beside a NaN in the other term
        alone = anchored._replace(lam_g=0.0, lam_c=0.0)
        assert solver._uncleared(alone, omega) == [] and solver._uncleared(alone, omega[:1]) == []
        nan_g = anchored._replace(lam_g=math.nan)
        assert solver._uncleared(nan_g, omega) == [0, 1, 2, 3, 4]
        assert solver._uncleared(nan_g, omega[:1]) == [0]


class TestStampOnce:
    def test_repeated_solves_of_one_netlist_stamp_once(self, monkeypatch):
        built = []
        real_build = solver._build_stamp

        def counting(netlist):
            built.append(netlist)
            return real_build(netlist)

        monkeypatch.setattr(solver, "_build_stamp", counting)
        net = parse_netlist("V1 1 0 1.0\nR1 1 2 1k\nC1 2 0 1n")
        first = solve_ac(net, 1e5)
        assert solve_ac(net, 1e5) == first
        transfer(net, "V1", (2, 0), FrequencyGrid.log(1e4, 1e6, 5))
        assert len(built) == 1
        twin = parse_netlist("V1 1 0 1.0\nR1 1 2 1k\nC1 2 0 1n")
        assert twin == net
        assert solve_ac(twin, 1e5) == first
        assert len(built) == 2 and built[1] is twin


def loop_stamp(netlist):
    """Textbook MNA stamp of g, c and gamma, summed entry by entry in element order."""
    index = {node: i for i, node in enumerate(sorted(netlist.nodes() - {netlist.ground}))}
    sources = netlist.sources()
    size = len(index) + len(sources)
    g, c, gamma = (np.zeros((size, size)) for _ in range(3))
    for e in netlist.elements:
        if e.kind == "V":
            continue
        m, y = {"R": (g, 1.0 / e.value), "C": (c, e.value), "L": (gamma, 1.0 / e.value)}[e.kind]
        i, j = (index.get(node) for node in e.nodes)
        if i is not None:
            m[i, i] += y
        if j is not None:
            m[j, j] += y
        if i is not None and j is not None:
            m[i, j] -= y
            m[j, i] -= y
    for r, src in enumerate(sources, start=len(index)):
        for node, sign in zip(src.nodes, (1.0, -1.0)):
            if node in index:
                g[index[node], r] += sign
                g[r, index[node]] += sign
    return g, c, gamma


@st.composite
def grounded_netlists(draw, kinds="RCLV"):
    """Connected netlists of the given kinds: a spanning tree from ground plus extra branches."""
    n = draw(st.integers(2, 7))
    pairs = [(k, draw(st.integers(0, k - 1))) for k in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                           .filter(lambda p: p[0] != p[1]), max_size=8))
    elements = []
    for k, (a, b) in enumerate(pairs):
        kind = draw(st.sampled_from(kinds))
        elements.append(Element(kind, draw(st.floats(1e-12, 1e6)), (a, b), f"{kind}{k}"))
    return Netlist(tuple(elements))


class TestStampIsTheTextbookLoop:
    @settings(max_examples=100, deadline=None)
    @given(grounded_netlists())
    def test_stamp_equals_the_loop_bit_for_bit(self, netlist):
        stamp = solver._build_stamp(netlist)
        g, c, gamma = loop_stamp(netlist)
        reactive = stamp.topology.reactive
        assert np.array_equal(stamp.matrices, np.stack((g, c, gamma)))
        if any(e.kind == "L" for e in netlist.elements):
            assert stamp.gamma_reactive.tobytes() == gamma.ravel()[reactive].tobytes()
        else:
            assert stamp.gamma_reactive is None
        assert stamp.peaks == tuple(np.abs(m).max() for m in (g, c, gamma))
        # every C and L is > 0, so the entries they reach are the nonzero ones of c and gamma
        assert np.array_equal(reactive, np.flatnonzero((c != 0.0) | (gamma != 0.0)))
        assert stamp.c_reactive.tobytes() == c.ravel()[reactive].tobytes()
        assert stamp.base.tobytes() == (g + 0j)[None].tobytes()


def solved(netlist, f):
    """solve_ac at f, and the rounding bound 1e3 * u * cond_2 * max|x| on any of its unknowns."""
    sol = solve_ac(netlist, f)
    cond = np.linalg.cond(assembled(solver._stamp(netlist), [f]))[0]
    unknowns = [*sol.values(), *sol.source_currents.values()]
    return sol, 1e3 * solver._EPS * cond * max(map(abs, unknowns))


class TestCircuitProperties:
    """Passivity and reciprocity of random RC and RLC graphs, up to the solve's rounding."""

    @settings(max_examples=200, deadline=None)
    @given(grounded_netlists("RCL"), st.floats(1e-3, 1e9), st.data())
    def test_a_source_delivers_non_negative_real_power(self, core, f, data):
        node = data.draw(st.sampled_from(sorted(core.nodes() - {0})))
        net = Netlist(core.elements + (Element("V", 1.0, (node, 0), "VS"),))
        try:
            sol, rounding = solved(net, f)
        except SingularCircuitError:
            assume(False)
        # The MNA branch current flows from the + node through the source, so the
        # source drives -i into the circuit and delivers Re(V conj(-i)) = -Re(i) for V = 1.
        assert -sol.source_currents["VS"].real >= -rounding

    @settings(max_examples=200, deadline=None)
    @given(grounded_netlists("RCL"), st.floats(1e-3, 1e9), st.data())
    def test_reciprocity_with_matched_terminations(self, core, f, data):
        nodes = sorted(core.nodes() - {0})
        assume(len(nodes) >= 2)
        a, b = data.draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
        port = max(nodes) + 1

        def gain(drive, probe):
            # the source behind 50 ohm at one node, 50 ohm to ground at the other
            net = Netlist(core.elements + (Element("V", 1.0, (port, 0), "VS"),
                                           Element("R", 50.0, (port, drive), "RS"),
                                           Element("R", 50.0, (probe, 0), "RT")))
            sol, rounding = solved(net, f)
            return sol[probe], rounding

        try:
            (forward, err_f), (reverse, err_r) = gain(a, b), gain(b, a)
        except SingularCircuitError:
            assume(False)
        assert abs(forward - reverse) <= err_f + err_r

    @settings(max_examples=200, deadline=None)
    @given(grounded_netlists("RCL"), st.floats(1e-3, 1e9), st.data())
    def test_kcl_holds_at_every_node(self, core, f, data):
        node = data.draw(st.sampled_from(sorted(core.nodes() - {0})))
        net = Netlist(core.elements + (Element("V", 1.0, (node, 0), "VS"),))
        try:
            sol, rounding = solved(net, f)
        except SingularCircuitError:
            assume(False)
        jw = 2j * math.pi * f
        # A node's residual, the sum of the currents leaving it through its elements and
        # sources, is its row of A x - z = A (x - x_exact). So it is within rounding times
        # that row's 1-norm: each element's |admittance| twice, as it multiplies both of
        # the element's voltages, and 1 per source incidence.
        residual = dict.fromkeys(net.nodes(), 0j)
        row_norm = dict.fromkeys(net.nodes(), 0.0)
        for e in net.elements:
            a, b = e.nodes
            if e.kind == "V":
                current, y = sol.source_currents[e.label], 1.0
            else:
                y = {"R": 1.0 / e.value, "C": jw * e.value, "L": 1.0 / (jw * e.value)}[e.kind]
                current = (sol[a] - sol[b]) * y
            residual[a] += current
            residual[b] -= current
            for n in (a, b):
                row_norm[n] += abs(y) if e.kind == "V" else 2.0 * abs(y)
        for n in core.nodes() - {0}:
            assert abs(residual[n]) <= rounding * row_norm[n], f"KCL violated at node {n}"


def assembled(stamp, f):
    """A(w) for each frequency in f, built as the solver builds it."""
    w = (2.0 * math.pi * np.asarray(f, dtype=float))[:, None, None]
    g, c, gamma = stamp.matrices
    a = np.empty((len(f), *g.shape), dtype=complex)
    a.real = g
    np.multiply(w, c, out=a.imag)
    if stamp.gamma_reactive is not None:
        a.imag -= gamma / w
    return a


def cond_bound(cert, f):
    """The certificate's bound on cond_2 at each frequency in f."""
    with np.errstate(all="ignore"):
        num, alpha = solver._bound_terms(cert, 2.0 * math.pi * np.asarray(f, dtype=float),
                                         np.hypot)
        return num / alpha


def margin(m):
    """The certificate's rounding margin for the matrix m of a size-unknown stamp."""
    return solver._MARGIN * len(m) ** 2 * np.abs(m).max(initial=0.0)


def assert_bound_holds(cert, points, conds, size):
    """The bound is at least each cond, up to the SVD's rounding, and clears none above 1e12."""
    for bound, cond in zip(cond_bound(cert, points).tolist(), conds.tolist()):
        assert not bound * (1.0 + size * solver._EPS * cond) < cond
        assert not (bound < solver._CLEARED_BOUND and cond > 1e12)


def kernel(stamp):
    """N, the orthonormal basis of ker B^T that the certificate uses; None when beta = 0."""
    n = len(stamp.topology.index)
    return solver._source_kernel(stamp.matrices[0, :n, n:])[0]


def anchor_matrix(stamp, w_0):
    """N^T (G + w_0 C) N."""
    n = len(stamp.topology.index)
    basis = kernel(stamp)
    g, c, _ = stamp.matrices[:, :n, :n]
    return basis.T @ (g + w_0 * c) @ basis


def with_anchor(stamp):
    """The stamp's certificate with an anchored term built here, whatever its alpha:
    lam_0 = lambda_min(N^T (G + w_0 C) N) at w_0 = |G|_F / |C|_F, less the solver's margin.

    Unchanged with inductors, without a kernel, or without a w_0 in the float range.
    """
    cert = solver._certificate(stamp)
    basis = kernel(stamp)
    w_0 = cert.g_norm / cert.c_norm if cert.c_norm else 0.0
    if (stamp.gamma_reactive is not None or basis is None or not basis.shape[1]
            or not 0.0 < w_0 < math.inf):
        return cert
    low = float(np.linalg.eigvalsh(anchor_matrix(stamp, w_0))[0])
    tol = 2.0 * solver._MARGIN * len(stamp.matrices[0]) ** 2 * cert.g_norm
    return cert._replace(lam_0=max(low - tol, 0.0), w_0=w_0)


FREQUENCY_LISTS = st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=12, unique=True).map(sorted)


@st.composite
def sourced_netlists(draw):
    """A grounded R, C and L netlist with 1-3 unit sources, each across two drawn nodes
    (ground among them), and one more across the ends of the first, a loop, half the time."""
    core = draw(grounded_netlists("RCL"))
    nodes = sorted(core.nodes())
    pairs = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
                          .filter(lambda p: p[0] != p[1]), min_size=1, max_size=3))
    if draw(st.booleans()):
        pairs.append(pairs[0][::-1])
    return Netlist(core.elements + tuple(Element("V", 1.0, p, f"V{k}")
                                         for k, p in enumerate(pairs)))


def has_source_loop(netlist):
    """Whether some sources form a loop, ground a node like any other: union-find."""
    root = {}

    def find(node):
        while root.get(node, node) != node:
            node = root[node]
        return node

    for a, b in (e.nodes for e in netlist.sources()):
        ra, rb = find(a), find(b)
        if ra == rb:
            return True
        root[ra] = rb
    return False


class TestSourceKernel:
    """N and beta of the source incidence B, from one Householder QR of B."""

    @settings(max_examples=300, deadline=None)
    @given(sourced_netlists())
    def test_kernel_is_orthonormal_and_beta_is_the_smallest_singular_value(self, netlist):
        stamp = solver._build_stamp(netlist)
        n = len(stamp.topology.index)
        incidence = stamp.matrices[0, :n, n:]
        basis, inv_beta, _ = solver._source_kernel(incidence)
        if has_source_loop(netlist):
            assert basis is None and inv_beta == math.inf
            return
        m = incidence.shape[1]
        assert basis.shape == (n, n - m)
        tol = 4.0 * n * solver._EPS
        assert np.abs(basis.T @ basis - np.eye(n - m)).max(initial=0.0) <= tol
        assert np.abs(incidence.T @ basis).max(initial=0.0) <= tol
        beta = np.linalg.svd(incidence, compute_uv=False)[-1]
        assert 1.0 / inv_beta == pytest.approx(beta, rel=1e-12)

    def test_circuits_with_one_incidence_share_one_read_only_kernel(self):
        # the values and the kinds differ, the source's nodes do not
        one, same, moved = (kernel(solver._build_stamp(parse_netlist(text))) for text in (
            "V1 1 0 1\nR1 1 2 1k\nC1 2 0 1n", "V1 1 0 2\nR1 1 2 5k\nL1 2 0 1u",
            "V1 2 0 1\nR1 1 2 1k\nC1 1 0 1n"))
        assert same is one and not one.flags.writeable
        assert moved is not one and moved.shape == one.shape


class TestCertificate:
    """The bound on cond_2 computed from the stamp before any LU solve."""

    @settings(max_examples=300, deadline=None)
    @given(grounded_netlists(),
           st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=12, unique=True).map(sorted))
    def test_bound_is_at_least_cond_and_warnings_are_the_svds(self, netlist, points):
        stamp = solver._build_stamp(netlist)
        cert = solver._certificate(stamp)
        a = assembled(stamp, points)
        with np.errstate(all="ignore"):
            conds = np.linalg.cond(a)
        for bound, cond in zip(cond_bound(cert, points).tolist(), conds.tolist()):
            # at least cond, up to the rounding of the SVD's smallest singular value
            assert not bound * (1.0 + len(a[0]) * solver._EPS * cond) < cond
            assert not (bound < solver._CLEARED_BOUND and cond > 1e12)
        # and with an anchored term, which the solver never computes with inductors
        assert_bound_holds(with_anchor(stamp), points, conds, len(a[0]))
        if stamp.gamma_reactive is not None:
            assert cert.lam_0 == 0.0
        # a source loop or more sources than nodes (beta = 0) clears nothing
        if cert.inv_beta == math.inf:
            assert solver._uncleared(cert, 2.0 * math.pi * np.array(points)) == list(
                range(len(points)))
        if not netlist.sources():
            return
        try:
            res = transfer(netlist, netlist.sources()[0].label, (1, 0), FrequencyGrid(points))
        except SingularCircuitError:
            return
        assert res.warnings == tuple(
            f"ill-conditioned MNA system at f={f:g} Hz (cond~{k:.3g})"
            for f, k in zip(points, conds.tolist()) if k > 1e12)

    @settings(max_examples=200, deadline=None)
    @given(grounded_netlists(), st.data())
    def test_bound_holds_where_w_c_and_gamma_over_w_cancel(self, netlist, data):
        # at the resonance of a drawn L and C, and where w |C|_F = |Gamma|_F / w
        values = {kind: [e.value for e in netlist.elements if e.kind == kind] for kind in "LC"}
        assume(values["L"] and values["C"])
        l, c = (data.draw(st.sampled_from(values[kind])) for kind in "LC")
        stamp = solver._build_stamp(netlist)
        cert = solver._certificate(stamp)
        omegas = (1.0 / math.sqrt(l * c), math.sqrt(cert.gamma_norm / cert.c_norm))
        points = sorted({w / (2.0 * math.pi) for w in omegas})
        a = assembled(stamp, points)
        with np.errstate(all="ignore"):
            conds = np.linalg.cond(a)
        assert_bound_holds(cert, points, conds, len(a[0]))
        if not netlist.sources():
            return
        try:
            res = transfer(netlist, netlist.sources()[0].label, (1, 0), FrequencyGrid(points))
        except SingularCircuitError:
            return
        assert res.warnings == tuple(
            f"ill-conditioned MNA system at f={f:g} Hz (cond~{k:.3g})"
            for f, k in zip(points, conds.tolist()) if k > 1e12)

    @settings(max_examples=300, deadline=None)
    @given(grounded_netlists("RCV"), FREQUENCY_LISTS)
    def test_anchored_bound_on_rc_netlists(self, netlist, points):
        # A node with resistors alone and one with capacitors alone give lam_G = lam_C = 0.
        stamp = solver._build_stamp(netlist)
        cert = solver._certificate(stamp)
        anchored = with_anchor(stamp)
        a = assembled(stamp, points)
        with np.errstate(all="ignore"):
            conds = np.linalg.cond(a)
        assert_bound_holds(cert, points, conds, len(a[0]))
        assert_bound_holds(anchored, points, conds, len(a[0]))
        # the anchor only adds: it clears every point that the certificate clears without it
        omega = 2.0 * math.pi * np.array(points)
        plain = anchored._replace(lam_0=0.0)
        assert set(solver._uncleared(anchored, omega)) <= set(solver._uncleared(plain, omega))
        if cert.lam_g or cert.lam_c:  # the solver anchors only where alpha is 0 at every w
            assert cert.lam_0 == 0.0
        elif cert.lam_0:  # lowered by its margin below the eigenvalue of the unscaled matrix
            exact = np.linalg.eigvalsh(anchor_matrix(stamp, cert.w_0))[0]
            assert cert.lam_0 <= exact
        if not netlist.sources():
            return
        try:
            res = transfer(netlist, netlist.sources()[0].label, (1, 0), FrequencyGrid(points))
        except SingularCircuitError:
            return
        assert res.warnings == tuple(
            f"ill-conditioned MNA system at f={f:g} Hz (cond~{k:.3g})"
            for f, k in zip(points, conds.tolist()) if k > 1e12)

    def test_the_anchored_term_is_exact_at_the_corner_of_one_rc_node(self):
        # A(w) = g + j w c alone has cond_2 = 1, and at w_0 = g / c both terms of
        # alpha equal |A| = sqrt(2) g: the anchor claims no more than the truth.
        stamp = solver._build_stamp(parse_netlist("R1 1 0 1k\nC1 1 0 1n"))
        cert = with_anchor(stamp)  # lambda_min(G + w_0 C), as the solver anchors only alpha = 0
        assert cert.w_0 == pytest.approx(1e6, rel=1e-15)
        bound = cond_bound(cert, [cert.w_0 / (2.0 * math.pi)])[0]
        assert 1.0 <= bound < 1.0 + 1e-9

    @pytest.mark.parametrize("text", [
        "V1 1 0 1\nV2 1 0 1\nV3 1 0 1\nR1 1 0 1",  # three sources on one node: m > n
        "V1 1 0 1\nV2 1 0 1\nV3 1 0 1\nR1 1 2 1\nR2 2 3 1\nR3 3 0 1",  # rank 1 of 3
    ])
    def test_parallel_sources_have_no_beta_and_clear_nothing(self, text):
        stamp = solver._build_stamp(parse_netlist(text))
        cert = solver._certificate(stamp)
        assert kernel(stamp) is None and cert.inv_beta == math.inf
        omega = 2.0 * math.pi * np.geomspace(1e3, 1e6, 5)
        assert solver._uncleared(cert, omega) == [0, 1, 2, 3, 4]
        assert solver._uncleared(cert, omega[:1]) == [0]

    @settings(max_examples=200, deadline=None)
    @given(grounded_netlists())
    def test_node_blocks_are_psd_on_the_kernel(self, netlist):
        stamp = solver._build_stamp(netlist)
        basis = kernel(stamp)
        assume(basis is not None and basis.shape[1])
        n = len(stamp.topology.index)
        assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
        assert np.abs(stamp.matrices[0, :n, n:].T @ basis).max(initial=0.0) < 1e-12
        for m in stamp.matrices:  # gamma is all zeros without inductors
            low = np.linalg.eigvalsh(basis.T @ m[:n, :n] @ basis)[0]
            assert low >= -margin(m)

    @settings(max_examples=200, deadline=None)
    @given(grounded_netlists(), st.data())
    def test_restamp_certificate_bounds_the_exact_one(self, netlist, data):
        caps = [e.label for e in netlist.elements if e.kind == "C"]
        assume(caps)
        labels = data.draw(st.lists(st.sampled_from(caps), min_size=1, unique=True))
        values = {label: data.draw(st.floats(1e-15, 1e6)) for label in labels}
        parent = solver._stamp(netlist)
        parent.certificate = with_anchor(parent)
        restamped = solver._restamp(parent, values)
        derived = restamped.certificate  # made with the restamp, before any solve
        exact = solver._certificate(replace(restamped, certificate=None))
        assert derived.lam_c <= exact.lam_c + margin(restamped.matrices[1])
        assert derived.c_norm >= exact.c_norm * (1.0 - 1e-12)
        assert (derived.lam_g, derived.g_norm, derived.gamma_norm) == (
            exact.lam_g, exact.g_norm, exact.gamma_norm)
        assert derived.lam_0 == 0.0  # never the parent's anchored term
        if restamped.gamma_reactive is not None:  # with inductors alpha is lam_g alone
            assert derived.lam_c == exact.lam_c == 0.0

    def test_calibration_steps_take_no_eigensolve(self, eigvalsh_calls, svd_points):
        calibrate_return_scale(80.0, c_c=21e-12)
        assert len(eigvalsh_calls) == 1  # lam_G and lam_C of the circuit every step restamps
        assert svd_points == []

    @pytest.mark.parametrize("load, calls", [
        (LoadSpec.capacitive(), 1),  # lam_G and lam_C in one batched call
        # lam_G = lam_C = 0, so alpha is 0 at every w: lam_0 too, in one more call
        (LoadSpec.resistive(50.0), 2),
    ])
    def test_a_fresh_inter_body_stamp_takes_one_certificate(self, load, calls, eigvalsh_calls):
        net = build_inter_body(InterBodyParams(BodyChannelParams(load=load), c_c=21e-12))
        grid = FrequencyGrid.log(1e5, 1e9, 50)
        transfer(net, SOURCE_LABEL, INTER_PROBE, grid)
        assert len(eigvalsh_calls) == calls
        transfer(net, SOURCE_LABEL, INTER_PROBE, grid)
        assert len(eigvalsh_calls) == calls  # kept on the stamp

    def test_an_rlc_stamp_takes_no_anchored_term(self, eigvalsh_calls):
        # with inductors alpha is lam_G alone, and lam_0 is never computed
        net = netlist_from_tuples(ladder(8, 1e3, 1e-9, 1e-3))
        transfer(net, "V1", (9, 0), FrequencyGrid.log(1e3, 1e7, 50))
        assert len(eigvalsh_calls) == 1 and solver._stamp(net).certificate.lam_0 == 0.0

    def test_an_rlc_restamp_takes_its_parents_certificate(self, eigvalsh_calls):
        # G, Gamma and N are the parent's and lam_C is 0 with inductors: no eigensolve
        net = netlist_from_tuples(ladder(8, 1e3, 1e-9, 1e-3))
        grid = FrequencyGrid.log(1e3, 1e7, 50)
        transfer(net, "V1", (9, 0), grid)
        assert len(eigvalsh_calls) == 1
        caps = {"C2": 2.5e-9, "C5": 0.3e-9}
        restamped = solver._restamp(solver._stamp(net), caps)
        x, warnings = solver._solve_grid(restamped, grid.points)
        assert len(eigvalsh_calls) == 1 and restamped.certificate.lam_c == 0.0
        rebuilt = Netlist(tuple(replace(e, value=caps.get(e.label, e.value)) for e in net.elements))
        want, want_warnings = solver._solve_grid(solver._stamp(rebuilt), grid.points)
        assert x.tobytes() == want.tobytes() and warnings == want_warnings

    def test_a_restamp_that_fails_to_clear_goes_to_the_svd(self, eigvalsh_calls, svd_points):
        # node 3 has no conductance: alpha = w * lam_C
        text = "V1 1 0 1\nR1 1 2 1k\nC1 2 3 1n\nC2 3 0 1n\nC3 3 0 {}"
        net = parse_netlist(text.format("1n"))
        solve_ac(net, 1e3)
        assert len(eigvalsh_calls) == 1 and svd_points == []
        stamp = solver._stamp(net)
        kept = solver._restamp(stamp, {"C3": 0.5e-9})
        assert len(solver._solve_grid(kept, (1e3,))[0]) == 1
        assert len(eigvalsh_calls) == 1 and svd_points == []  # lam_C scaled from the parent
        # C3 down by 1e6 scales lam_C down by 1e6, though C2 keeps it near its old value:
        # the scaled certificate fails to clear, and the point goes to the SVD as it is
        dropped = solver._solve_grid(solver._restamp(stamp, {"C3": 1e-15}), (1e3,))
        assert len(eigvalsh_calls) == 1 and svd_points == [1]
        fresh = solver._solve_grid(solver._stamp(parse_netlist(text.format("1e-15"))), (1e3,))
        assert len(eigvalsh_calls) == 2 and svd_points == [1]  # its own lam_C clears it
        assert dropped[0].tobytes() == fresh[0].tobytes() and dropped[1] == fresh[1]


def outcome(fn):
    """What fn() gives: the type and bits of its float or float64 ndarray, or the type and
    message of the error it raises."""
    try:
        value = fn()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return type(value), value.hex() if isinstance(value, float) else (value.dtype, value.tobytes())


def assert_transfer_is_its_point_solves(netlist, points, data):
    """transfer over points gives, bit for bit, the gains and warnings of solve_ac at each
    point, or the error of the first singular one, for a drawn source and probe."""
    source = data.draw(st.sampled_from(netlist.sources()))
    nodes = sorted(netlist.nodes())
    probe = (data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes)))
    try:
        res = transfer(netlist, source.label, probe, FrequencyGrid(points))
    except SingularCircuitError as exc:
        with pytest.raises(SingularCircuitError) as per_point:
            for f in points:
                solve_ac(netlist, f)
        assert str(per_point.value) == str(exc)
        return
    solutions = [solve_ac(netlist, f) for f in points]
    # the same scaling as transfer's, so only the solved voltages are compared
    want = np.array([sol[probe[0]] - sol[probe[1]] for sol in solutions])
    want = (want.view(float) * (1.0 / source.value)).view(complex)
    assert res.gain.tobytes() == want.tobytes()
    assert res.warnings == tuple(w for sol in solutions for w in sol.warnings)


class TestSweepIsItsPointSolves:
    @settings(max_examples=150, deadline=None)
    @given(grounded_netlists(),
           st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=12, unique=True).map(sorted),
           st.data())
    def test_transfer_equals_solve_ac_bit_for_bit(self, netlist, points, data):
        assume(netlist.sources())
        assert_transfer_is_its_point_solves(netlist, points, data)

    @settings(max_examples=150, deadline=None)
    @given(grounded_netlists(),
           st.lists(st.floats(1e-3, 1e9), min_size=3, max_size=13, unique=True).map(sorted),
           st.data())
    def test_blocks_of_two_points_are_their_point_solves(self, netlist, points, data):
        # Two points per block: the grid crosses full blocks, and with an odd count ends in a
        # partial one, all in one buffer that holds g once. The node added here is reached
        # by no capacitor or inductor, so its entries keep their +0.0 imaginary parts.
        assume(netlist.sources())
        nodes = sorted(netlist.nodes())
        tail = Element("R", data.draw(st.floats(1e-12, 1e6)),
                       (max(nodes) + 1, data.draw(st.sampled_from(nodes))), "Rtail")
        netlist = Netlist((*netlist.elements, tail))
        size = len(nodes) + len(netlist.sources())  # the nodes, the new one less ground
        assert solver._stamp(netlist).rhs.shape[1] == size
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_BLOCK_ENTRIES", 2 * size * size)
            assert_transfer_is_its_point_solves(netlist, points, data)

    @pytest.mark.parametrize("text, top", [
        ("V1 1 0 1\nR1 1 2 1k\nC1 2 0 1e300\nC2 2 0 1n", "C1 (C = 1e+300)"),
        ("V1 1 0 1\nR1 1 2 1k\nL1 2 0 1e-307\nC1 2 0 1e300", "C1 (C = 1e+300)"),
    ])
    def test_an_out_of_range_point_names_the_grids_element(self, text, top):
        # the grid's top point leaves the float range; a one-point solve there names the
        # element that the grid names
        net = parse_netlist(text)
        points = FrequencyGrid.log(1e5, 1e9, 5).points
        with pytest.raises(ValueError) as grid:
            transfer(net, "V1", (2, 0), FrequencyGrid(points[2:]))
        with pytest.raises(ValueError) as point:
            solve_ac(net, points[-1])
        assert str(point.value) == str(grid.value) == (
            f"element {top} puts the MNA system out of the float range at f=1e+09 Hz")

    def test_anchored_point_solves_are_the_sweep(self, svd_points):
        # One-point solves of the 50 ohm circuit (lam_0 > 0) bound their point on an ndarray,
        # as the sweep's block does; at 1e170 and 1e200 Hz that bound overflows and each
        # point warns from its SVD.
        params = InterBodyParams(BodyChannelParams(load=LoadSpec.resistive(50.0)), c_c=21e-12)
        net = build_inter_body(params)
        points = [*FrequencyGrid.log(1e5, 1e9, 9), 1e170, 1e200]
        res = transfer(net, SOURCE_LABEL, INTER_PROBE, FrequencyGrid(points))
        assert solver._stamp(net).certificate.lam_0 > 0.0 and svd_points == [2]
        solutions = [solve_ac(net, f) for f in points]
        assert svd_points == [2, 1, 1]
        (plus, minus), source = INTER_PROBE, net.source(SOURCE_LABEL)
        want = np.array([sol[plus] - sol[minus] for sol in solutions]) / source.value
        assert res.gain.tobytes() == want.tobytes()
        assert len(res.warnings) == 2
        assert res.warnings == tuple(w for sol in solutions for w in sol.warnings)

    @settings(max_examples=200, deadline=None)
    @given(grounded_netlists(),
           st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=12, unique=True).map(sorted),
           st.data())
    def test_probe_gain_is_the_rebuilt_netlists_sweep_bit_for_bit(self, netlist, points, data):
        assume(netlist.sources())
        # unit sources, so that transfer's division by the source changes no bit
        netlist = Netlist(tuple(replace(e, value=1.0) if e.kind == "V" else e
                                for e in netlist.elements))
        source = data.draw(st.sampled_from(netlist.sources())).label
        nodes = sorted(netlist.nodes())  # ground among them
        probe = (data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes)))
        labels = [e.label for e in netlist.elements if e.kind == "C"]
        caps = data.draw(st.dictionaries(st.sampled_from(labels), st.floats(1e-12, 1e6))
                         if labels else st.just({}))
        rebuilt = Netlist(tuple(replace(e, value=caps[e.label]) if e.label in caps else e
                                for e in netlist.elements))
        gain_db, f = solver._probe_gain(netlist, probe), points[0]

        def sweep(net, freqs):
            return lambda: transfer(net, source, probe, FrequencyGrid(freqs)).gain_db()

        def one(net):
            return lambda: float(sweep(net, [f])()[0])

        grid = FrequencyGrid(points).points
        assert outcome(lambda: gain_db(f)) == outcome(one(netlist))
        assert (got := outcome(lambda: gain_db(grid))) == outcome(sweep(netlist, points))
        if got[0] is np.ndarray:  # each point's one-float gain is its grid value
            assert [gain_db(point) for point in points] == gain_db(grid).tolist()
        assert outcome(lambda: gain_db(f, caps)) == outcome(one(rebuilt))
        assert outcome(lambda: gain_db(grid, caps)) == outcome(sweep(rebuilt, points))

    def test_probe_gain_over_a_grid_refuses_a_non_finite_gain_as_the_sweep_does(
            self, monkeypatch):
        net = build_inter_body(InterBodyParams(BodyChannelParams(), c_c=21e-12))
        grid = FrequencyGrid.log(1e5, 1e9, 5)
        solve = solver._solve_grid

        def overflowing(stamp, freqs):
            x, warnings = solve(stamp, freqs)
            x = x.copy()
            x[-1, solver._stamp(net).topology.index[INTER_PROBE[0]]] = complex(math.inf, 0.0)
            return x, warnings

        monkeypatch.setattr(solver, "_solve_grid", overflowing)
        with pytest.raises(ValueError) as sweep:
            transfer(net, SOURCE_LABEL, INTER_PROBE, grid)
        with pytest.raises(ValueError) as probe:
            solver._probe_gain(net, INTER_PROBE)(grid.points)
        assert str(probe.value) == str(sweep.value) == "non-finite gain in sweep result"

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_one_float_probe_gain_refuses_a_bad_frequency(self, bad):
        config = default_region_config()
        for gain_db in (config.eqs_gain_db, lambda f: inter_body_gain_db(config.channel, f),
                        lambda f: intra_body_gain_db(config.channel.base, f)):
            with pytest.raises(ValueError, match=rf"^frequency must be finite and > 0, got "
                                                 rf"{re.escape(str(bad))}$"):
                gain_db(bad)

    def test_names_the_first_singular_frequency(self):
        # Two sources in parallel: at 1 Hz the LU meets an exact zero pivot while the
        # smallest singular value is rounding noise; at 2 Hz that value is exactly 0.
        net = parse_netlist("R0 1 0 1\nR1 0 1 1\nR2 0 1 1\nR3 0 1 114\nC4 0 1 3\n"
                            "L5 0 1 1\nV6 0 1 1\nV7 0 1 1")
        for points in ([1.0], [1.0, 2.0]):
            with pytest.raises(SingularCircuitError, match="^singular MNA system at f=1 Hz$"):
                transfer(net, "V6", (1, 0), FrequencyGrid(points))


class TestUnknownCap:
    def test_one_unknown_past_the_cap_is_refused_before_the_stamp(self):
        # a source and a resistor chain: 2048 nodes but ground, and the source's branch current
        net = parse_netlist("V1 1 0 1\n" + "".join(f"R{k} {k} {k + 1} 1k\n" for k in range(1, 2048)))
        assert solver._MAX_UNKNOWNS == 2048 == len(net.nodes()) - 1
        # its stamp's g, c and gamma alone would take 3 * size**2 floats, some 100 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                solve_ac(net, 1e6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "the netlist has 2049 MNA unknowns; at most 2048 are allowed"
        assert peak < 2 ** 20 and getattr(net, "_mna", None) is None


class TestAdmittanceSpan:
    """A singular system whose element admittances span more than 1/u is a range error
    naming the elements of largest and smallest admittance."""

    WIDE = parse_netlist("V1 1 0 1\nR1 1 2 1k\nC1 2 0 1n\nC2 2 0 1e200")

    def test_an_lu_failure_names_the_span(self, monkeypatch):
        # at 1 kHz, w*C2 is 6e203 S and w*C1 6e-6 S; the LU failure is forced at one point
        grid = FrequencyGrid.log(1e2, 1e4, 9)
        bad = grid.points[4]
        real_solve = np.linalg.solve

        def failing_solve(a, b):
            if np.any(a[..., 1, 1].imag == 2.0 * math.pi * bad * (1e-9 + 1e200)):
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        want = (f"^element admittances at f={bad:g} Hz span more than the float precision, "
                "from C2 \\(C = 1e\\+200\\) down to C1 \\(C = 1e-09\\)$")
        with pytest.raises(AdmittanceSpanError, match=want) as grid_error:
            transfer(self.WIDE, "V1", (2, 0), grid)
        with pytest.raises(AdmittanceSpanError) as point_error:
            solve_ac(self.WIDE, bad)
        assert str(point_error.value) == str(grid_error.value)
        assert isinstance(grid_error.value, ValueError)

    def test_a_source_loop_stays_singular_whatever_the_span(self):
        # two sources in parallel are singular for any values: the node set is named
        net = parse_netlist("V1 1 0 1\nV2 1 0 2\nR1 1 0 1e12\nC1 1 0 1e10")
        with pytest.raises(SingularCircuitError, match="^singular MNA system at f=1000 Hz") as info:
            transfer(net, "V1", (1, 0), FrequencyGrid.log(1e3, 1e6, 5))
        assert type(info.value) is SingularCircuitError


class TestRestamp:
    LADDER = parse_netlist("V1 1 0 2.5\nR1 1 2 1k\nC1 2 0 1n\nL1 2 3 1m\nR2 3 0 50\nC2 3 4 2p\n"
                           "R3 4 0 1M\nV2 5 4 0\nC3 5 0 3p")

    @settings(max_examples=100, deadline=None)
    @given(grounded_netlists(), st.data())
    def test_restamp_equals_a_fresh_stamp(self, netlist, data):
        caps = [e.label for e in netlist.elements if e.kind == "C"]
        labels = data.draw(st.lists(st.sampled_from(caps), unique=True)) if caps else []
        values = {label: data.draw(st.floats(1e-15, 1e6)) for label in labels}
        parent = solver._stamp(netlist)
        got = solver._restamp(parent, values)
        fresh = solver._build_stamp(Netlist(tuple(replace(e, value=values.get(e.label, e.value))
                                                  for e in netlist.elements)))
        assert got.topology is parent.topology and got.rhs is parent.rhs
        assert got.base is parent.base  # g, and so its complex copy, is the parent's
        for name in ("matrices", "rhs", "base", "c_reactive", "gamma_reactive"):
            want = getattr(fresh, name)
            if want is None:
                assert getattr(got, name) is None
            else:  # bit for bit, the sign of a zero included
                assert getattr(got, name).tobytes() == want.tobytes()
        assert (got.peaks, got.values) == (fresh.peaks, fresh.values)
        assert not got.matrices.flags.writeable and not got.rhs.flags.writeable
        # the parent is left as it was
        assert parent.values == tuple(e.value for e in netlist.elements)
        # every restamp in the float range has its certificate from its parent's
        assert (got.certificate is not None) == (max(parent.peaks + got.peaks) < math.inf)

    def test_a_restamped_entry_is_summed_in_element_order(self):
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in floats: the restamp adds node 2's
        # capacitances in element order, as a fresh stamp's bincount does
        text = "V1 1 0 1\nR1 1 2 1k\nC1 2 0 {}\nC2 2 0 0.2\nC3 2 0 0.3"
        got = solver._restamp(solver._stamp(parse_netlist(text.format(1))), {"C1": 0.1})
        fresh = solver._build_stamp(parse_netlist(text.format(0.1)))
        assert got.matrices[1].tobytes() == fresh.matrices[1].tobytes()
        assert got.matrices[1, 1, 1] == (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1

    def test_the_plan_is_made_once_per_label_set(self):
        stamp = solver._stamp(parse_netlist("V1 1 0 1\nR1 1 2 1k\nC1 2 0 1n\nC2 2 0 1n"))
        first = solver._restamp(stamp, {"C1": 2e-9, "C2": 3e-9})
        [plan] = stamp.topology.plans.values()
        again = solver._restamp(first, {"C2": 4e-9, "C1": 5e-9})
        assert again.topology is stamp.topology and list(stamp.topology.plans.values()) == [plan]
        solver._restamp(again, {"C1": 6e-9})
        assert len(stamp.topology.plans) == 2

    @pytest.mark.parametrize("value", [0.0, -1e-12, math.nan, math.inf])
    def test_restamp_checks_each_value(self, value):
        with pytest.raises(ValueError, match="^C1 must be finite and > 0"):
            solver._restamp(solver._stamp(self.LADDER), {"C1": value})

    def test_a_restamp_out_of_range_names_its_new_value(self, monkeypatch):
        # The restamp makes its certificate from the parent's, which it computes from the
        # parent's finite matrices; the restamped system reaches no np.linalg call.
        net = parse_netlist("V1 1 0 1\nR1 1 2 1k\nC1 2 0 1n\nC2 2 0 1n")
        restamped = solver._restamp(solver._stamp(net), {"C1": 1e300})
        assert restamped.certificate is not None

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg reached")

        for name in ("solve", "svd", "eigh", "eigvalsh", "qr"):
            monkeypatch.setattr(np.linalg, name, refuse)
        with pytest.raises(ValueError, match=r"^element C1 \(C = 1e\+300\) puts .* f=1e\+09 Hz$"):
            solver._solve_grid(restamped, FrequencyGrid.log(1e-3, 1e9, 5).points)

    @pytest.mark.parametrize("label", ["R1", "L1", "V1"])
    def test_restamp_takes_capacitors_only(self, label):
        with pytest.raises(ValueError, match=f"^element {label} is not a capacitor$"):
            solver._restamp(solver._stamp(self.LADDER), {label: 1.0})


class TestOutOfFloatRange:
    """An entry of g, w*c or gamma/w past the float range is a ValueError naming an
    element, raised before any np.linalg call and without a numpy warning."""

    @pytest.fixture(autouse=True)
    def no_linalg(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg reached")

        for name in ("solve", "svd", "eigh", "eigvalsh", "qr"):
            monkeypatch.setattr(np.linalg, name, refuse)

    @pytest.mark.parametrize("text, label, f", [
        # w*c past the range at the top of the grid only
        ("V1 1 0 1\nR1 1 2 1k\nC1 2 0 1e300\nC2 2 0 1n", "C1 (C = 1e+300)", "1e+09"),
        # two finite capacitances whose stamped sum is not; the larger is named
        ("V1 1 0 1\nR1 1 2 1k\nC1 2 0 1e308\nC2 2 0 1.5e308", "C2 (C = 1.5e+308)", "1e+09"),
        # 1/R itself past the range
        ("V1 1 0 1\nR1 1 2 1e-320\nR2 2 0 1k", "R1 (R = 9.99989e-321)", "0.001"),
        # gamma/w past the range at the bottom of the grid only
        ("V1 1 0 1\nR1 1 2 1k\nL1 2 0 1e-307", "L1 (L = 1e-307)", "0.001"),
    ])
    def test_transfer_names_the_element(self, text, label, f):
        grid = FrequencyGrid.log(1e-3, 1e9, 5)
        with pytest.raises(ValueError) as info:
            transfer(parse_netlist(text), "V1", (2, 0), grid)
        assert str(info.value) == (f"element {label} puts the MNA system out of the float "
                                   f"range at f={float(f):g} Hz")

    def test_a_restamp_names_the_element(self):
        # a parent with an entry past the float range gives its restamp no certificate,
        # so nothing reaches np.linalg before the check
        net = parse_netlist("V1 1 0 1\nR1 1 2 1e-320\nR2 2 0 1k\nC1 2 0 1n")
        restamped = solver._restamp(solver._stamp(net), {"C1": 2e-9})
        with pytest.raises(ValueError, match=r"^element R1 \(R = 9.99989e-321\) puts"):
            solver._solve_grid(restamped, FrequencyGrid.log(1e-3, 1e9, 5).points)

    def test_a_calibration_names_the_element(self):
        with pytest.raises(ValueError, match=r"^element RS \(R = 9.99989e-321\) puts"):
            calibrate_return_scale(60.0, params=BodyChannelParams(r_s=1e-320))

    def test_solve_ac_checks_its_frequency(self):
        net = parse_netlist("V1 1 0 1\nR1 1 2 1k\nC1 2 0 1e300")
        with pytest.raises(ValueError, match="element C1"):
            solve_ac(net, 1e9)
        # 2*pi*1e5 Hz * 1e300 F is finite: the check passes and the solve is reached
        with pytest.raises(AssertionError, match="np.linalg reached"):
            solve_ac(net, 1e5)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("points", [(1.0, math.inf), (math.nan, 1.0), (1.0, math.nan, 3.0),
                                        (-math.inf, 1.0)])
    def test_grid_rejects_non_finite_points(self, points):
        with pytest.raises(ValueError, match="finite"):
            FrequencyGrid(points)

    @pytest.mark.parametrize("f", [math.nan, math.inf])
    def test_solve_ac_rejects_non_finite_frequency(self, f):
        with pytest.raises(ValueError, match="finite"):
            solve_ac(DIVIDER, f)


@st.composite
def increasing_arrays(draw):
    """Strictly increasing positive float64 arrays of 1-400 points."""
    values = draw(st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=400, unique=True))
    return np.array(sorted(values))


class TestArrayTypes:
    @settings(max_examples=50, deadline=None)
    @given(increasing_arrays())
    def test_grid_points_are_a_read_only_copy(self, x):
        grid = FrequencyGrid(x)
        assert grid.points.dtype == np.float64 and grid.points.shape == x.shape
        with pytest.raises(ValueError):
            grid.points[0] = 1.0
        given_points = x.copy()
        x[:] = -1.0
        assert np.array_equal(grid.points, given_points)

    @settings(max_examples=50, deadline=None)
    @given(increasing_arrays())
    def test_grid_iterates_python_floats_and_compares_by_value(self, x):
        grid = FrequencyGrid(x)
        points = list(grid)
        assert all(type(p) is float for p in points) and points == grid.points.tolist()
        assert len(grid) == len(x)
        assert grid == FrequencyGrid(list(x)) == FrequencyGrid(tuple(points))
        assert grid != FrequencyGrid(x * 1.5)
        assert grid != FrequencyGrid([*points, points[-1] * 2.0])

    @settings(max_examples=50, deadline=None)
    @given(increasing_arrays())
    def test_sweep_arrays_are_read_only_copies(self, x):
        gain = x * (0.5 - 0.25j)
        res = SweepResult(freqs=x, gain=gain)
        assert res.freqs.dtype == np.float64 and res.gain.dtype == np.complex128
        for array in (res.freqs, res.gain):
            with pytest.raises(ValueError):
                array[0] = 1.0
        given_freqs, given_gain = x.copy(), gain.copy()
        x[:], gain[:] = -1.0, 0.0
        assert np.array_equal(res.freqs, given_freqs) and np.array_equal(res.gain, given_gain)

    @pytest.mark.parametrize("points", [1.0, np.float64(2.0), [[1.0, 2.0]], np.ones((2, 2)), [],
                                        [1.0, math.nan], [0.0, 1.0], [-1.0, 1.0], [1.0, 1.0],
                                        [1.0, 3.0, 2.0]])
    def test_grid_rejects(self, points):
        with pytest.raises(ValueError):
            FrequencyGrid(points)

    @pytest.mark.parametrize("freqs, gain", [
        ([1.0, 2.0], [1j]),
        ([1.0], [1.0, 2.0]),
        ([1.0], [math.inf]),
        ([1.0], [complex(math.nan, 0.0)]),
        ([1.0], [complex(0.0, -math.inf)]),
        ([1.0], [1.5e308 + 1.5e308j]),  # finite parts, infinite magnitude
        ([[1.0]], [1.0]),
    ])
    def test_sweep_result_rejects(self, freqs, gain):
        with pytest.raises(ValueError):
            SweepResult(freqs=freqs, gain=gain)

    @pytest.mark.parametrize("points", [np.array([1.0 + 1.0j, 2.0]),
                                        np.array([1.0, 2.0], dtype=complex), [1.0, 2j]])
    def test_complex_frequencies_rejected(self, points):
        with pytest.raises(ValueError, match="points must be real"):
            FrequencyGrid(points)
        with pytest.raises(ValueError, match="freqs must be real"):
            SweepResult(freqs=points, gain=[1.0, 2.0])

    def test_zero_gain_is_minus_inf_db_without_a_warning(self):
        res = SweepResult(freqs=[1.0, 2.0], gain=[0j, -0.1])
        assert res.gain_db().tolist() == [-math.inf, -20.0]

    def test_sweeps_compare_by_identity(self):
        grid = FrequencyGrid.log(1e3, 1e6, 5)
        res = transfer(RC_POLE, "V1", (2, 0), grid)
        assert res == res and res != transfer(RC_POLE, "V1", (2, 0), grid)
