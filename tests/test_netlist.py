import math

import pytest
from hypothesis import given, settings

from eqshbc.netlist import (
    Element,
    Netlist,
    NetlistError,
    format_netlist,
    parse_netlist,
    parse_si_value,
)
from test_solver import grounded_netlists


class TestSiValues:
    @pytest.mark.parametrize("text,expected", [
        ("1000", 1000.0),
        ("1e-9", 1e-9),
        ("4.7k", 4700.0),
        ("2M", 2e6),
        ("3m", 3e-3),
        ("10u", 10e-6),
        ("21p", 21e-12),
        ("5n", 5e-9),
        ("2f", 2e-15),
        ("-3.5", -3.5),
        (".5k", 500.0),
    ])
    def test_accepted(self, text, expected):
        assert parse_si_value(text) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("text", ["", "k", "1Meg", "1G", "1.2.3", "ten", "1 k"])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_si_value(text)

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "1e308M"])
    def test_overflow_rejected(self, text):
        with pytest.raises(ValueError, match="finite"):
            parse_si_value(text)


class TestParse:
    def test_three_element_divider(self):
        net = parse_netlist("V1 1 0 1.0\nR1 1 2 1000\nC1 2 0 1e-9")
        assert len(net.elements) == 3
        assert len(net.nodes()) == 3
        assert net.ground == 0
        kinds = [e.kind for e in net.elements]
        assert kinds == ["V", "R", "C"]

    def test_comments_and_blank_lines(self):
        net = parse_netlist("# title\n\nV1 1 0 1.0  # source\nR1 1 0 50\n")
        assert len(net.elements) == 2

    def test_si_suffixed_values(self):
        net = parse_netlist("V1 1 0 1.0\nR1 1 2 1k\nC1 2 0 1n")
        assert net.elements[1].value == 1000.0
        assert net.elements[2].value == pytest.approx(1e-9)

    def test_identical_nodes_rejected(self):
        with pytest.raises(NetlistError, match="identical nodes"):
            parse_netlist("V1 1 0 1.0\nR1 1 1 50")

    def test_floating_node_rejected(self):
        # nodes 7-8 form an island with no path to ground
        text = "V1 1 0 1.0\nR1 1 0 50\nR2 7 8 100"
        with pytest.raises(NetlistError, match="floating"):
            parse_netlist(text)

    def test_no_ground_rejected(self):
        with pytest.raises(NetlistError, match="ground"):
            parse_netlist("V1 1 2 1.0\nR1 1 2 50")

    def test_duplicate_label_rejected_with_line(self):
        with pytest.raises(NetlistError, match="line 3.*duplicate"):
            parse_netlist("V1 1 0 1.0\nR1 1 0 50\nR1 1 0 60")

    def test_unknown_kind_rejected(self):
        with pytest.raises(NetlistError, match="unknown element kind"):
            parse_netlist("X1 1 0 1.0")

    def test_syntax_error_reports_line(self):
        with pytest.raises(NetlistError, match="line 2"):
            parse_netlist("V1 1 0 1.0\nR1 1 0")

    def test_bad_node_id(self):
        with pytest.raises(NetlistError, match="integers"):
            parse_netlist("R1 a b 50\nV1 1 0 1")

    def test_negative_element_value_rejected(self):
        with pytest.raises(NetlistError, match="> 0"):
            parse_netlist("V1 1 0 1.0\nR1 1 0 -50")


class TestElementInvariants:
    def test_source_amplitude_may_be_zero(self):
        Element("V", 0.0, (1, 0), "V1")

    def test_source_amplitude_negative_rejected(self):
        with pytest.raises(ValueError):
            Element("V", -1.0, (1, 0), "V1")

    def test_rcl_values_positive(self):
        for kind in "RCL":
            with pytest.raises(ValueError):
                Element(kind, 0.0, (1, 0), f"{kind}1")

    def test_label_must_start_with_kind_letter(self):
        with pytest.raises(ValueError, match="round-trip"):
            Element("R", 50.0, (1, 0), "XLOAD")
        Element("R", 50.0, (1, 0), "rload")  # lowercase kind letter is fine


class TestRoundTrip:
    def test_format_then_parse_is_identical(self):
        net = parse_netlist("V1 1 0 1.0\nR1 1 2 4.7k\nC1 2 0 1n\nL1 2 3 10u\nR2 3 0 50")
        again = parse_netlist(format_netlist(net, header="round trip"))
        assert again.elements == net.elements
        assert again.nodes() == net.nodes()

    @settings(max_examples=100, deadline=None)
    @given(grounded_netlists())
    def test_any_netlist_round_trips_to_an_equal_one(self, net):
        assert parse_netlist(format_netlist(net)) == net

    def test_netlist_is_immutable(self):
        net = parse_netlist("V1 1 0 1.0\nR1 1 0 50")
        with pytest.raises(AttributeError):
            net.ground = 1
        assert isinstance(net.elements, tuple)

    def test_source_lookup(self):
        net = parse_netlist("V1 1 0 1.0\nR1 1 0 50")
        assert net.source("V1").value == 1.0
        with pytest.raises(KeyError):
            net.source("V9")

    def test_empty_netlist_rejected(self):
        with pytest.raises(NetlistError, match="empty"):
            Netlist(elements=())


class TestNonFiniteElements:
    @pytest.mark.parametrize("kind", ["R", "C", "L"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_passive_value_rejected(self, kind, value):
        with pytest.raises(ValueError, match="finite and > 0"):
            Element(kind, value, (1, 0), f"{kind}1")

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_source_amplitude_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            Element("V", value, (1, 0), "V1")

    def test_overflowing_netlist_value_reports_line(self):
        with pytest.raises(NetlistError, match="line 2.*finite"):
            parse_netlist("V1 1 0 1\nR1 1 0 1e400")
