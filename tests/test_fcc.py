import math
from importlib import resources

import pytest

from eqshbc.fcc import (
    DEFAULT_FIELD_MODEL,
    FccLimitRow,
    FieldDecayModel,
    fcc_limit,
    field_at,
    is_unintentional_radiator,
    limit_table,
    margin_factor,
    parse_limit_table,
    serialize_limit_table,
)
from eqshbc.solver import FrequencyGrid


class TestLimitTable:
    def test_seven_rows(self):
        assert len(limit_table()) == 7

    def test_breakpoints(self):
        lows = [r.f_low_hz for r in limit_table()]
        assert lows == [9e3, 490e3, 1.705e6, 30e6, 88e6, 216e6, 960e6]
        assert math.isinf(limit_table()[-1].f_high_hz)

    def test_round_trips_bit_exactly(self):
        raw = resources.files("eqshbc.data").joinpath("fcc_limits_v1.csv").read_text()
        assert serialize_limit_table(parse_limit_table(raw)) == raw

    def test_rows_partition_without_overlap(self):
        rows = limit_table()
        for a, b in zip(rows, rows[1:]):
            assert b.f_low_hz == a.f_high_hz

    def test_gap_rejected(self):
        text = ("f_low_hz,f_high_hz,limit_spec,distance_m\n"
                "9000,490000,2400/F_kHz,300\n"
                "500000,1705000,24000/F_kHz,30\n")
        with pytest.raises(ValueError, match="partition"):
            parse_limit_table(text)


class TestFccLimit:
    @pytest.mark.parametrize("f,limit,distance", [
        (100e3, 24.0, 300.0),      # 2400/F row, F = 100 kHz
        (1e6, 24.0, 30.0),         # 24000/F row, F = 1000 kHz
        (50e6, 100.0, 3.0),
        (9e3, 2400.0 / 9.0, 300.0),
        (490e3, 24000.0 / 490.0, 30.0),
        (1.705e6, 30.0, 30.0),
        (30e6, 100.0, 3.0),
        (88e6, 150.0, 3.0),
        (216e6, 200.0, 3.0),
        (960e6, 500.0, 3.0),
        (5e9, 500.0, 3.0),
    ])
    def test_lookup(self, f, limit, distance):
        got_limit, got_distance = fcc_limit(f)
        assert got_limit == pytest.approx(limit, rel=1e-12)
        assert got_distance == distance

    def test_below_table_rejected(self):
        with pytest.raises(ValueError, match="9 kHz"):
            fcc_limit(8e3)

    @pytest.mark.parametrize("f", [math.nan, math.inf])
    def test_non_finite_rejected(self, f):
        with pytest.raises(ValueError, match="finite"):
            fcc_limit(f)


class TestFieldDecay:
    def test_anchor_identity(self):
        model = FieldDecayModel(anchor_field=0.05, anchor_distance=0.2)
        assert field_at(model, 0.2) == 0.05

    def test_cube_law(self):
        model = FieldDecayModel(anchor_field=0.08, anchor_distance=0.1, exponent=3.0)
        assert field_at(model, 0.2) == pytest.approx(0.01, rel=1e-12)

    def test_strictly_decreasing(self):
        ds = [0.1, 0.3, 1.0, 3.0, 30.0]
        fields = [field_at(DEFAULT_FIELD_MODEL, d) for d in ds]
        assert all(b < a for a, b in zip(fields, fields[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            FieldDecayModel(anchor_field=-1.0)
        with pytest.raises(ValueError):
            field_at(DEFAULT_FIELD_MODEL, 0.0)


class TestMargin:
    def test_calibrated_margin_at_500khz(self):
        assert margin_factor(DEFAULT_FIELD_MODEL, 500e3) == pytest.approx(2e4, rel=1e-9)

    def test_boundary_margin_of_one(self):
        limit_uv, distance = fcc_limit(500e3)
        model = FieldDecayModel(anchor_field=limit_uv * 1e-6, anchor_distance=distance)
        assert margin_factor(model, 500e3) == pytest.approx(1.0, rel=1e-12)

    def test_margin_scales_inversely_with_field(self):
        stronger = FieldDecayModel(anchor_field=DEFAULT_FIELD_MODEL.anchor_field * 10.0)
        assert margin_factor(stronger, 500e3) == pytest.approx(
            margin_factor(DEFAULT_FIELD_MODEL, 500e3) / 10.0, rel=1e-12)


class TestCompliance:
    def test_calibrated_model_is_unintentional_radiator(self):
        grid = FrequencyGrid.log(1e5, 1e6, 25)
        report = is_unintentional_radiator(DEFAULT_FIELD_MODEL, grid)
        assert report.compliant
        assert len(report.rows) == 25
        assert all(r["margin_factor"] > 1.0 for r in report.rows)

    def test_scaled_up_field_violates_and_lists_rows(self):
        model = FieldDecayModel(anchor_field=DEFAULT_FIELD_MODEL.anchor_field * 1e5)
        report = is_unintentional_radiator(model, FrequencyGrid.log(1e5, 1e6, 25))
        assert not report.compliant
        violating = [r for r in report.rows if not r["compliant"]]
        assert violating
        for row in violating:
            assert row["margin_factor"] <= 1.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            FrequencyGrid(points=())

    def test_rows_are_the_per_point_computation(self):
        # every row of the table, its edges and points just below them
        edges = [r.f_low_hz for r in limit_table()]
        points = sorted({*edges, *(math.nextafter(f, 0.0) for f in edges[1:]), 1e5, 5e9})
        model = FieldDecayModel(anchor_field=0.03, exponent=3.1)
        report = is_unintentional_radiator(model, FrequencyGrid(points))
        assert len(report.rows) == len(points)
        for f, row in zip(points, report.rows):
            table_row = next(r for r in limit_table() if f < r.f_high_hz)  # a linear scan
            limit, distance = table_row.limit_uv_per_m(f), table_row.distance_m
            assert fcc_limit(f) == (limit, distance)
            field = field_at(model, distance)
            margin = (limit * 1e-6) / field
            assert list(row.items()) == [
                ("freq_hz", f), ("limit_uv_per_m", limit), ("distance_m", distance),
                ("field_uv_per_m", field * 1e6), ("margin_factor", margin),
                ("compliant", margin > 1.0)]
            assert [type(v) for v in row.values()] == [float] * 5 + [bool]
            assert margin_factor(model, f) == margin
        assert report.compliant is all(r["compliant"] for r in report.rows)

    def test_grid_below_floor_rejected_at_its_first_point(self):
        with pytest.raises(ValueError, match="^5000 Hz is below the table floor of 9 kHz$"):
            is_unintentional_radiator(DEFAULT_FIELD_MODEL, FrequencyGrid([5e3, 8e3, 1e5]))

    @pytest.mark.parametrize("f", [8e3, math.nan])
    def test_margin_factor_rejects_what_fcc_limit_does(self, f):
        with pytest.raises(ValueError):
            fcc_limit(f)
        with pytest.raises(ValueError):
            margin_factor(DEFAULT_FIELD_MODEL, f)
