"""Netlist data model and the line-oriented netlist text format.

A netlist is a list of linear two-terminal elements (R, C, L, AC voltage
source) referencing integer node ids. Node 0 is ground. Text format, one
element per line, ``#`` starts a comment:

    <KIND><label> <node+> <node-> <value>

``KIND`` is one of V/R/C/L (the first character of the element label).
Values accept SI suffixes k, M, m, u, n, p, f (case-sensitive: M = mega,
m = milli) as well as plain/scientific notation.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from typing import ClassVar

__all__ = [
    "Element",
    "Netlist",
    "NetlistError",
    "ParameterError",
    "parse_netlist",
    "format_netlist",
    "parse_si_value",
]

KINDS = ("V", "R", "C", "L")

SI_SUFFIXES = {
    "": 1.0,
    "k": 1e3,
    "M": 1e6,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
}

_VALUE_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)([A-Za-z]*)$")


class ParameterError(ValueError):
    """A refused parameter value: ``template`` with its ``{}`` filled by ``names``.

    ``names`` are the parameters the message names, in order, so that a
    caller that knows where each one was set (``config._keyed``) can name
    that place instead. ``values`` fill the template's named fields, so a
    value of any text, braces too, is never read as a field.
    """

    def __init__(self, template: str, *names: str, **values):
        super().__init__(template.format(*names, **values))
        self.template, self.names, self.values = template, names, values


def _require_real(name: str, value) -> None:
    """value must be one real number: a Python or numpy scalar, not an ndarray or a complex.

    Each check below calls it for any value but a float, its common case.
    """
    if not isinstance(value, (float, int)) and not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")


def _require_finite(name: str, value: float) -> None:
    if type(value) is not float:
        _require_real(name, value)
    if not math.isfinite(value):
        raise ParameterError(f"{{}} must be finite, got {value}", name)


def _require_positive(name: str, value: float) -> None:
    """value must be finite and > 0; NaN and inf fail as 0 does."""
    if type(value) is not float:
        _require_real(name, value)
    if not 0.0 < value < math.inf:
        raise ParameterError(f"{{}} must be finite and > 0, got {value}", name)


def _require_non_negative(name: str, value: float) -> None:
    """value must be finite and >= 0."""
    if type(value) is not float:
        _require_real(name, value)
    if not 0.0 <= value < math.inf:
        raise ParameterError(f"{{}} must be finite and >= 0, got {value}", name)


class NetlistError(ValueError):
    """Raised for malformed netlists; carries the offending line number if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_si_value(text: str) -> float:
    """Parse a numeric literal with an optional SI suffix (``4.7k``, ``1e-9``, ``21p``)."""
    m = _VALUE_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed value {text!r}")
    base, suffix = m.groups()
    if suffix not in SI_SUFFIXES:
        raise ValueError(f"unknown SI suffix {suffix!r} in {text!r} "
                         f"(accepted: {', '.join(s for s in SI_SUFFIXES if s)})")
    value = float(base) * SI_SUFFIXES[suffix]
    _require_finite("value", value)
    return value


@dataclass(frozen=True)
class Element:
    """One linear circuit element.

    kind : one of "R", "C", "L", "V"
    value : ohms / farads / henries / source amplitude in volts
    nodes : (node+, node-) integer ids; must differ
    label : unique identifier, first character equals the kind letter
    """

    kind: str
    value: float
    nodes: tuple[int, int]
    label: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        if not self.label or self.label[0].upper() != self.kind:
            raise ValueError(
                f"label {self.label!r} must start with its kind letter {self.kind!r} "
                "so netlists round-trip through the text format")
        a, b = self.nodes
        if a == b:
            raise ValueError(f"element {self.label}: identical nodes ({a}, {b})")
        if a < 0 or b < 0:
            raise ValueError(f"element {self.label}: negative node id")
        check = _require_non_negative if self.kind == "V" else _require_positive
        check(self.label, self.value)


@dataclass(frozen=True)
class Netlist:
    """Validated, immutable collection of elements with ground node 0.

    Construction checks that every node has a path to ground through the
    element graph; unsolvable floating subgraphs are rejected outright
    instead of being silently regularized.
    """

    elements: tuple[Element, ...]
    ground: ClassVar[int] = 0

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise NetlistError("empty netlist")
        labels = [e.label for e in self.elements]
        if len(set(labels)) != len(labels):
            dupes = {l for l in labels if labels.count(l) > 1}
            raise NetlistError(f"duplicate element labels: {sorted(dupes)}")
        nodes = self.nodes()
        if self.ground not in nodes:
            raise NetlistError(f"ground node {self.ground} is not referenced by any element")
        floating = nodes - self._reachable_from_ground()
        if floating:
            raise NetlistError(
                f"floating nodes with no path to ground: {sorted(floating)}")

    def nodes(self) -> set[int]:
        out: set[int] = set()
        for e in self.elements:
            out.update(e.nodes)
        return out

    def _reachable_from_ground(self) -> set[int]:
        adj: dict[int, set[int]] = {}
        for e in self.elements:
            a, b = e.nodes
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        seen = {self.ground}
        stack = [self.ground]
        while stack:
            for nxt in adj.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def sources(self) -> tuple[Element, ...]:
        return tuple(e for e in self.elements if e.kind == "V")

    def source(self, label: str) -> Element:
        for e in self.elements:
            if e.kind == "V" and e.label == label:
                return e
        raise KeyError(f"no voltage source labelled {label!r}")


def parse_netlist(text: str) -> Netlist:
    """Parse the line-oriented netlist format into a validated Netlist."""
    elements: list[Element] = []
    seen_labels: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 4:
            raise NetlistError(
                f"expected '<KIND><label> <node+> <node-> <value>', got {raw.strip()!r}",
                line=lineno)
        label, n_plus, n_minus, value_text = tokens
        kind = label[0].upper()
        if kind not in KINDS:
            raise NetlistError(f"unknown element kind {label[0]!r} in {label!r}", line=lineno)
        if label in seen_labels:
            raise NetlistError(f"duplicate element label {label!r}", line=lineno)
        seen_labels.add(label)
        try:
            nodes = (int(n_plus), int(n_minus))
        except ValueError:
            raise NetlistError(f"node ids must be integers, got {n_plus!r} {n_minus!r}",
                               line=lineno) from None
        try:
            value = parse_si_value(value_text)
            element = Element(kind=kind, value=value, nodes=nodes, label=label)
        except ValueError as exc:
            raise NetlistError(str(exc), line=lineno) from None
        elements.append(element)
    return Netlist(elements=tuple(elements))


def format_netlist(netlist: Netlist, header: str | None = None) -> str:
    """Render a Netlist back to its text form (round-trips through parse_netlist)."""
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    for e in netlist.elements:
        lines.append(f"{e.label} {e.nodes[0]} {e.nodes[1]} {e.value!r}")
    return "\n".join(lines) + "\n"
