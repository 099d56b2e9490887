"""Span tracing of eqshbc from outside the package.

Every function that a layer module lists in ``__all__`` is replaced, in
each ``eqshbc`` module namespace that holds it, by a wrapper that records
a span: which function, its caller's span, the operation it belongs to,
start and end. Functions that later changes add to ``__all__`` are traced
without edits here. Private helpers are not wrapped; their time counts
toward the public function that called them.

Spans stay in memory. When an operation ends its spans are added to the
per-layer totals; the spans of the first ``keep_ops`` operations (one
pass over a deck) are kept whole and written out when the run ends, so
memory stays bounded however long the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

LAYERS = ("netlist", "solver", "bodychannel", "multiregion", "risk", "fcc", "config", "cli")
OP = "op"
# Parameter names through which a solver entry point receives its frequency
# point(s): a scalar counts one point, a grid counts its length.
FREQ_PARAMS = ("f", "freq", "freqs", "grid")
# Span fields, in tuple order; parent indexes the same operation's spans.
FIELDS = ("name", "parent", "op", "t0", "t1", "points", "unknowns", "warnings", "error")
NAME, PARENT, OP_ID, T0, T1, POINTS, UNKNOWNS, WARNINGS, ERROR = range(len(FIELDS))

_NAMED_MS = {
    "multiregion.crossover_frequency": "multiregion.crossover_ms",
    "multiregion.classify_grid": "multiregion.classify_ms",
    "netlist.parse_netlist": "netlist.parse_ms",
}


def _param(params: list[str], candidates: tuple[str, ...]) -> tuple[int, str] | None:
    for pos, name in enumerate(params):
        if name in candidates:
            return pos, name
    return None


def _arg(args: tuple, kwargs: dict, where: tuple[int, str] | None):
    if where is None:
        return None
    pos, name = where
    return args[pos] if pos < len(args) else kwargs.get(name)


def _count_points(value) -> int:
    if value is None:
        return 0
    return len(value) if hasattr(value, "__len__") else 1


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[T1] - s[T0] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[T1] - s[T0]
    return own


class LayerTotals:
    """Per-layer sums over the spans of many operations.

    A layer is busy from the moment it is entered from another layer until
    that call returns; calls and errors count those entries.
    """

    def __init__(self, names: list[str], layers: list[str]):
        self.names, self.layers = names, layers
        self.ops = 0
        self.spans = 0
        self.seconds = {f"{layer}.{key}": 0.0 for layer in LAYERS
                        for key in ("busy_ms", "self_ms")}
        self.seconds.update({metric: 0.0 for metric in _NAMED_MS.values()})
        self.counts = {f"{layer}.{key}": 0 for layer in LAYERS for key in ("calls", "errors")}
        self.points = self.weighted_unknowns = self.warnings = 0
        self.point_seconds = 0.0
        self.crossover_points = self.calibrate_points = 0

    def add(self, spans: list) -> None:
        names, layers = self.names, self.layers
        self.spans += len(spans)
        for s, own in zip(spans, self_times(spans)):
            layer = layers[s[NAME]]
            if layer == OP:
                self.ops += 1
                continue
            duration = s[T1] - s[T0]
            self.seconds[f"{layer}.self_ms"] += own
            name = names[s[NAME]]
            if name in _NAMED_MS:
                self.seconds[_NAMED_MS[name]] += duration
            parent = s[PARENT]
            if parent >= 0 and layers[spans[parent][NAME]] == layer:
                continue
            self.counts[f"{layer}.calls"] += 1
            self.counts[f"{layer}.errors"] += s[ERROR]
            self.seconds[f"{layer}.busy_ms"] += duration
            if layer != "solver":
                continue
            self.warnings += s[WARNINGS]
            if not s[POINTS]:
                continue
            self.points += s[POINTS]
            self.weighted_unknowns += s[UNKNOWNS] * s[POINTS]
            self.point_seconds += duration
            while parent >= 0:
                caller = names[spans[parent][NAME]]
                if caller == "multiregion.crossover_frequency":
                    self.crossover_points += s[POINTS]
                    break
                if caller.startswith("bodychannel.calibrate_"):
                    self.calibrate_points += s[POINTS]
                    break
                parent = spans[parent][PARENT]

    def metrics(self, output_rows: int) -> dict[str, tuple[float, str]]:
        """Per-operation metrics as {name: (value, unit)}."""
        n = max(1, self.ops)
        out = {key: (value * 1e3 / n, "ms/op") for key, value in self.seconds.items()}
        out.update({key: (value / n, "count/op") for key, value in self.counts.items()})
        points = self.points
        out["solver.points"] = (points / n, "count/op")
        out["solver.points_per_output_row"] = (points / max(1, output_rows), "ratio")
        out["solver.us_per_point"] = (self.point_seconds * 1e6 / points if points else 0.0, "us")
        out["solver.warnings"] = (self.warnings / n, "count/op")
        out["solver.mna_unknowns_mean"] = (self.weighted_unknowns / points if points else 0.0,
                                           "count")
        out["multiregion.crossover_solver_points"] = (self.crossover_points / n, "count/op")
        out["bodychannel.calibrate_solver_points"] = (self.calibrate_points / n, "count/op")
        out["trace.spans_per_op"] = (self.spans / n, "count/op")
        return out


class Tracer:
    """Wraps the public eqshbc functions while active and records their spans."""

    def __init__(self, keep_ops: int = 0):
        self.names = [OP]
        self.layers = [OP]
        self.op_kinds: list[str] = []
        self.keep_ops = keep_ops
        self.kept: list = []
        self._spans: list = []  # spans of the operation in progress
        self._stack = [(-1, None)]  # (span id, layer) of the open spans
        self._op = -1
        self._mna_sizes: dict[int, tuple[object, int]] = {}
        self._patches = self._build_patches()
        self.totals = LayerTotals(self.names, self.layers)

    def _build_patches(self) -> list[tuple]:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"eqshbc.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[id(fn)] = (fn, self._wrap(fn, layer))
        patches = []
        for name, module in list(sys.modules.items()):
            if name != "eqshbc" and not name.startswith("eqshbc."):
                continue
            for attr, value in vars(module).items():
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((module, attr, value, hit[1]))
        return patches

    @contextlib.contextmanager
    def active(self):
        """Route calls through the wrappers for the duration of the block."""
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    @contextlib.contextmanager
    def op_span(self, kind: str):
        """Root span of one benchmark operation; spans inside it share its id."""
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)
        spans = self._spans
        sid = len(spans)
        spans.append(None)
        self._stack.append((sid, OP))
        error = 1
        t0 = perf_counter()
        try:
            yield
            error = 0
        finally:
            t1 = perf_counter()
            self._stack.pop()
            spans[sid] = (0, -1, self._op, t0, t1, 0, 0, 0, error)
            self._finish_op()

    def _finish_op(self) -> None:
        spans = self._spans
        self.totals.add(spans)
        if self._op < self.keep_ops:
            self.kept.extend(spans)
        spans.clear()

    def _mna_size(self, netlist) -> int:
        if netlist is None:
            return 0
        hit = self._mna_sizes.get(id(netlist))
        if hit is None or hit[0] is not netlist:
            size = len(netlist.nodes()) - 1 + len(netlist.sources())
            hit = self._mna_sizes[id(netlist)] = (netlist, size)
        return hit[1]

    def _wrap(self, fn, layer: str):
        name = len(self.names)
        self.names.append(f"{layer}.{fn.__name__}")
        self.layers.append(layer)
        params = list(inspect.signature(fn).parameters)
        freq_at = _param(params, FREQ_PARAMS)
        netlist_at = _param(params, ("netlist",))
        is_solver = layer == "solver"
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_layer = stack[-1]
            sid = len(spans)
            spans.append(None)
            stack.append((sid, layer))
            out = None
            error = 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                error = 0
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                points = unknowns = warnings = 0
                if is_solver and parent_layer != "solver":
                    points = _count_points(_arg(args, kwargs, freq_at))
                    unknowns = self._mna_size(_arg(args, kwargs, netlist_at))
                    warnings = len(getattr(out, "warnings", ()))
                spans[sid] = (name, parent, self._op, t0, t1, points, unknowns, warnings, error)

        return traced

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON; span parents index within their operation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "ops": self.op_kinds[:self.keep_ops],
                       "fields": FIELDS, "spans": self.kept}, fh)
