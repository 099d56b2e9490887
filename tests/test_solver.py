import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuit_oracle import brute_force_voltages, random_rc_network
from eqshbc.bodychannel import INTER_PROBE, SOURCE_LABEL
from eqshbc.multiregion import default_region_config
from eqshbc import solver
from eqshbc.netlist import Element, Netlist, parse_netlist
from eqshbc.solver import (
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
        # sections + 2 unknowns; a block holds 1 << 13 complex matrix entries
        n = int(blocks * (1 << 13) / (sections + 2) ** 2)
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
        # cond ~ 1/(w*C) crosses 1e12 near 0.08 Hz; 2000 points span three blocks
        c1, c2 = 1e-12, 1e-12
        net = parse_netlist(f"V1 1 0 1.0\nC1 1 2 {c1}\nC2 2 0 {c2}")
        grid = FrequencyGrid.log(1e-3, 1.0, 2000)
        res = transfer(net, "V1", (2, 0), grid)

        def mna(f):
            jw = 2j * math.pi * f
            return np.array([[jw * c1, -jw * c1, 1.0], [-jw * c1, jw * (c1 + c2), 0.0],
                             [1.0, 0.0, 0.0]])

        offending = [f for f in grid if np.linalg.cond(mna(f)) > 1e12]
        assert 910 < len(offending) < len(grid)
        assert res.warnings == tuple(
            f"ill-conditioned MNA system at f={f:g} Hz (cond~{np.linalg.cond(mna(f)):.3g})"
            for f in offending)
        assert list(res.warnings) == [w for f in grid for w in solve_ac(net, f).warnings]

    def test_singular_frequency_reported_first_in_later_block(self):
        # series L-C from the source: node 2 has zero admittance at w = 1/sqrt(LC) = 1
        net = parse_netlist("V1 1 0 1.0\nL1 1 2 1\nC1 2 0 1")
        f_res = 1.0 / (2.0 * math.pi)
        points = tuple(np.geomspace(1e-3, 1e-1, 1000)) + (f_res, 1.0, 10.0)
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


def divider_mna(r1, r2, c, f):
    jwc = 2j * math.pi * f * c
    return np.array([[1.0 / r1, -1.0 / r1, 1.0], [-1.0 / r1, 1.0 / r1 + 1.0 / r2 + jwc, 0.0],
                     [1.0, 0.0, 0.0]])


class TestConditionScreen:
    """The LU inverse clears well-conditioned frequencies; the rest get the exact SVD check."""

    def test_large_ladder_needs_no_svd(self, svd_points):
        net = netlist_from_tuples(ladder(64, 1e3, 1e-9))
        res = transfer(net, "V1", (65, 0), FrequencyGrid.log(1e3, 1e7, 200))
        assert len(res.gain) == 200 and not res.warnings
        assert svd_points == []

    def test_warnings_equal_per_point_cond_reference(self, svd_points):
        # cond_2 ~ 2.8 / R1 for R2 = 1 kOhm: R1 from 3e-8 down to 3e-14 ohm puts
        # it between 1e8 and 1e14, with the series R1 far below R2.
        grid = FrequencyGrid.log(1e2, 1e8, 7)
        conds, swept = [], 0
        for r1 in np.geomspace(3e-8, 3e-14, 31).tolist():
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
        real_solve = np.linalg.solve

        def nan_inverse(a, b):
            out = real_solve(a, b)
            out[7, 0, 1] = math.nan  # one entry of point 7's inverse
            return out

        monkeypatch.setattr(np.linalg, "solve", nan_inverse)
        res = transfer(RC_POLE, "V1", (2, 0), grid)
        assert svd_points == [1]
        assert np.array_equal(res.gain, clean.gain) and res.warnings == ()


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
def grounded_netlists(draw):
    """Connected R/C/L/V netlists: a spanning tree from ground plus extra branches."""
    n = draw(st.integers(2, 7))
    pairs = [(k, draw(st.integers(0, k - 1))) for k in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                           .filter(lambda p: p[0] != p[1]), max_size=8))
    elements = []
    for k, (a, b) in enumerate(pairs):
        kind = draw(st.sampled_from("RCLV"))
        elements.append(Element(kind, draw(st.floats(1e-12, 1e6)), (a, b), f"{kind}{k}"))
    return Netlist(tuple(elements))


class TestStampIsTheTextbookLoop:
    @settings(max_examples=100, deadline=None)
    @given(grounded_netlists())
    def test_stamp_equals_the_loop_bit_for_bit(self, netlist):
        stamp = solver._build_stamp(netlist)
        g, c, gamma = loop_stamp(netlist)
        assert np.array_equal(stamp.g, g) and np.array_equal(stamp.c, c)
        if any(e.kind == "L" for e in netlist.elements):
            assert np.array_equal(stamp.gamma, gamma)
        else:
            assert stamp.gamma is None


class TestRestamp:
    LADDER = parse_netlist("V1 1 0 2.5\nR1 1 2 1k\nC1 2 0 1n\nL1 2 3 1m\nR2 3 0 50\nC2 3 4 2p\n"
                           "R3 4 0 1M\nV2 5 4 0\nC3 5 0 3p")

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.sampled_from(["V1", "R1", "C1", "L1", "R2", "C2", "R3", "C3"]),
                           st.floats(1e-15, 1e6)))
    def test_restamp_equals_a_fresh_stamp(self, values):
        restamped = solver._with_values(self.LADDER, values)
        rebuilt = Netlist(tuple(replace(e, value=values.get(e.label, e.value))
                                for e in self.LADDER.elements))
        assert restamped == rebuilt
        got, fresh = solver._stamp(restamped), solver._build_stamp(rebuilt)
        assert got.topology is solver._stamp(self.LADDER).topology
        for name in ("g", "c", "gamma", "rhs"):
            assert np.array_equal(getattr(got, name), getattr(fresh, name))

    @pytest.mark.parametrize("value", [0.0, -1e-12, math.nan, math.inf])
    def test_restamp_checks_each_value(self, value):
        with pytest.raises(ValueError, match="C1"):
            solver._with_values(self.LADDER, {"C1": value})


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
