"""Integral flow decomposition into source-sink paths and cycles.

A flow assigns a nonnegative integer to every arc instance and must be
conserved at every vertex that is neither a source nor a sink.  The
decomposition peels source-to-sink paths while some source still has
positive net outflow, then peels cycles; every term carries the minimum
residual flow along it, so each peel permanently zeroes at least one arc.
Peeling order is deterministic: lowest-numbered source first, and at every
step the outgoing arc with the smallest (head, instance index).  When a
greedy walk closes a loop before reaching a sink, the loop is peeled as a
cycle term and the walk restarts.  The result satisfies

* arc-by-arc reconstruction: the weighted sum of the terms equals the flow,
* every path term runs from a source to a sink,
* at most |A| terms in total (hence at most |V| + |A|), at most |A| cycles.

Sources, sinks and flow values that are not integers raise ValueError;
the text format is read by `digraph.read_lines`, with its line rules.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import MultiDigraph, build_digraph, checked_int, \
    checked_vertices, read_lines


@dataclass(frozen=True)
class FlowNetwork:
    """A digraph with designated sources/sinks and a per-arc-instance flow."""

    digraph: MultiDigraph
    sources: frozenset
    sinks: frozenset
    flow: tuple

    def __post_init__(self):
        d = self.digraph
        n = d.vertex_count
        object.__setattr__(self, "sources",
                           frozenset(checked_vertices(n, self.sources, "source")))
        object.__setattr__(self, "sinks",
                           frozenset(checked_vertices(n, self.sinks, "sink")))
        object.__setattr__(self, "flow",
                           tuple(checked_int(x, "flow value") for x in self.flow))
        if len(self.flow) != len(d.arcs):
            raise ValueError(
                f"flow has {len(self.flow)} entries for {len(d.arcs)} arc instances"
            )


@dataclass(frozen=True)
class FlowTerm:
    """A path or cycle term: arc instance indices walked in order, plus a weight."""

    arc_indices: tuple
    weight: int

    def vertices(self, d: MultiDigraph) -> tuple:
        """Vertex sequence of the walk (first == last for a cycle term)."""
        first = d.arcs[self.arc_indices[0]]
        seq = [first[0]]
        for idx in self.arc_indices:
            seq.append(d.arcs[idx][1])
        return tuple(seq)


@dataclass(frozen=True)
class FlowDecomposition:
    network: FlowNetwork
    path_terms: tuple
    cycle_terms: tuple

    def arc_sum(self) -> tuple:
        """Per-instance reconstruction of the flow from the terms."""
        total = [0] * len(self.network.digraph.arcs)
        for term in self.path_terms + self.cycle_terms:
            for idx in term.arc_indices:
                total[idx] += term.weight
        return tuple(total)


def _check_conservation(net: FlowNetwork) -> None:
    d = net.digraph
    balance = [0] * d.vertex_count
    for idx, (u, v) in enumerate(d.arcs):
        balance[u] -= net.flow[idx]
        balance[v] += net.flow[idx]
    exempt = net.sources | net.sinks
    for v in range(d.vertex_count):
        if v not in exempt and balance[v] != 0:
            raise ValueError(f"flow not conserved at non-terminal vertex {v}")


def flow_decompose(net: FlowNetwork) -> FlowDecomposition:
    """Decompose an integral flow into weighted source-sink paths and cycles.

    Raises ValueError when conservation fails at a non-terminal vertex, or
    when the source/sink designations are degenerate (a path peel ends at a
    vertex that is not a sink, or leftover flow is not a circulation).
    """
    _check_conservation(net)
    d = net.digraph
    residual = list(net.flow)

    out_idx = {v: [] for v in range(d.vertex_count)}
    in_idx = {v: [] for v in range(d.vertex_count)}
    for idx, (u, v) in enumerate(d.arcs):
        out_idx[u].append(idx)
        in_idx[v].append(idx)
    for v in out_idx:
        out_idx[v].sort(key=lambda i: (d.arcs[i][1], i))

    def net_outflow(v: int) -> int:
        return sum(residual[i] for i in out_idx[v]) - sum(residual[i] for i in in_idx[v])

    def next_arc(v: int):
        for i in out_idx[v]:
            if residual[i] > 0:
                return i
        return None

    def walk_from(start: int):
        """Greedy walk along positive-residual arcs.

        Returns ("cycle", loop_arc_indices, repeat_vertex) as soon as the
        walk revisits a vertex, or ("path", arc_indices, stuck_vertex) when
        it reaches a vertex with no positive outgoing residual.
        """
        seq = []
        pos = {start: 0}
        v = start
        while True:
            i = next_arc(v)
            if i is None:
                return "path", seq, v
            w = d.arcs[i][1]
            seq.append(i)
            if w in pos:
                return "cycle", seq[pos[w]:], w
            pos[w] = len(seq)
            v = w

    def peel(arc_indices) -> int:
        weight = min(residual[i] for i in arc_indices)
        for i in arc_indices:
            residual[i] -= weight
        return weight

    path_terms = []
    cycle_terms = []

    while True:
        source = next((s for s in sorted(net.sources) if net_outflow(s) > 0), None)
        if source is None:
            break
        kind, seq, end = walk_from(source)
        if kind == "cycle":
            cycle_terms.append(FlowTerm(tuple(seq), peel(seq)))
        else:
            if end not in net.sinks:
                raise ValueError(
                    f"path peel ended at non-sink vertex {end}; "
                    "check the source/sink designations"
                )
            path_terms.append(FlowTerm(tuple(seq), peel(seq)))

    while any(x > 0 for x in residual):
        start = min(v for v in range(d.vertex_count) if next_arc(v) is not None)
        kind, seq, end = walk_from(start)
        if kind != "cycle":
            raise ValueError(
                "leftover flow is not a circulation; check the source/sink designations"
            )
        cycle_terms.append(FlowTerm(tuple(seq), peel(seq)))

    return FlowDecomposition(net, tuple(path_terms), tuple(cycle_terms))


# ---------------------------------------------------------------------------
# Network text format (used by the CLI), read by `read_lines`: the digraph
# format with per-arc flow and terminal designations, lines in any order:
#   n <vertex_count>
#   a <tail> <head> <flow>
#   source <v>
#   sink <v>
# ---------------------------------------------------------------------------


def parse_network(text: str) -> FlowNetwork:
    """Parse the flow-network text format.  Raises ValueError when malformed."""
    vertex_count = None
    arcs = []
    flow = []
    ends = {"source": set(), "sink": set()}
    for lineno, directive, values in read_lines(text):
        if directive == "a" and len(values) == 3:
            arcs.append(values[:2])
            flow.append(values[2])
        elif directive in ends and len(values) == 1:
            ends[directive].add(values[0])
        elif directive == "n" and len(values) == 1 and vertex_count is None:
            vertex_count = values[0]
        else:
            raise ValueError(f"line {lineno}: expected one 'n <vertex_count>' "
                             "line and 'a <tail> <head> <flow>', 'source <v>', "
                             "'sink <v>' lines")
    if vertex_count is None:
        raise ValueError("missing n line")
    return FlowNetwork(build_digraph(vertex_count, arcs), ends["source"],
                       ends["sink"], tuple(flow))
