"""Spans and counters recorded around calls into the steinercycles layers.

Every call the benchmark makes into the package goes through
`Tracer.call`.  With tracing off that is a plain call; with tracing on it
records one span (name, start, end, parent verdict span) and keeps it in
memory until the run ends.  Each verdict opens a root span whose trace id
is "<workload>/<instance id>", so all spans of one instance share it.

Counts that the program reports itself (search nodes, gadget arcs) are
added with `Tracer.count` at the same boundaries, in both modes.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Spans reported as per-layer metrics.  The others (verdict roots,
# families.make, families.verify) are still written to the span file and
# still subtract from their parent's self time.
LAYER_SPANS = (
    "digraph.parse",
    "digraph.planarity",
    "packing.solve",
    "packing.verify",
    "families.decompose",
    "gadgets.build",
    "oracles.linkage",
    "oracles.demand",
    "oracles.hamiltonian",
    "oracles.symmetric",
)
# Spans whose call counts are reported as well.
CALL_COUNTED = (
    "digraph.parse",
    "digraph.planarity",
    "packing.solve",
    "packing.verify",
    "families.decompose",
    "gadgets.build",
)
COUNTERS = ("packing.nodes", "families.decompose.nodes", "gadgets.out_arcs")


class Tracer:
    """Span recorder for one batch of verdicts."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # (span_id, parent_id, trace_id, name, start, end)
        self.counts = defaultdict(int)
        self._parent = None
        self._trace = None

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.spans.append((len(self.spans), self._parent, self._trace,
                               name, start, end))

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    @contextmanager
    def verdict(self, trace_id: str):
        """Root span of one verdict; layer spans opened inside are its children."""
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id so children can point at it
        self._parent, self._trace = span_id, trace_id
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.spans[span_id] = (span_id, None, trace_id, "verdict", start, end)
            self._parent = self._trace = None


def self_times(spans) -> list:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover."""
    children = defaultdict(list)
    for (span_id, parent, _, _, start, end) in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (span_id, _, _, name, start, end) in spans:
        covered = 0.0
        reach = start
        for (c_start, c_end) in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((name, end - start - covered))
    return out


def layer_metrics(spans, counts, scale: float) -> dict:
    """Per-layer metrics of one traced batch, from its spans and counters;
    times are multiplied by `scale` (see speed.py)."""
    busy = defaultdict(float)
    calls = defaultdict(int)
    for (name, self_s) in self_times(spans):
        busy[name] += self_s * scale
        calls[name] += 1
    out = {}
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = calls[name]
    for name in LAYER_SPANS:
        out[f"{name}.busy_s"] = busy[name]
    for name in COUNTERS:
        out[name] = counts.get(name, 0)
    nodes = out["packing.nodes"]
    out["packing.ns_per_node"] = busy["packing.solve"] / nodes * 1e9 if nodes else 0.0
    return out


def write_spans(path, batches) -> None:
    """Write every traced batch's spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for batch_index, spans in enumerate(batches):
            for (span_id, parent, trace_id, name, start, end) in spans:
                fh.write(json.dumps({
                    "batch": batch_index, "span": span_id, "parent": parent,
                    "trace": trace_id, "name": name,
                    "start": start, "end": end,
                }) + "\n")
