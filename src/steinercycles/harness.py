"""Seeded random corpora checking the gadget reductions against oracles.

Each family function generates reproducible instances from a seed, runs
the relevant oracle on the source problem and the packing solver on the
gadget output, and reports one row per instance.  The generators also back
the statistical acceptance checks (random flows, random digraphs for the
degree-bound and monotonicity facts).

Instances that a family cannot use are resampled rather than patched: the
weak-linkage family, for example, redraws digraphs until the gadget comes
out connected, since the construction is only Eulerian in that case.

A count is a nonnegative integer (`digraph.checked_int`); a runner checks
its node budget first, then its count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .digraph import Graph, MultiDigraph, build_digraph, build_graph, \
    checked_int, is_eulerian
from .flows import FlowNetwork
from .gadgets import GadgetOutput, LinkageInstance, eulerian_gadget, \
    planar_gadget, replacement_gadget
from .oracles import arc_disjoint_demand_paths, hamiltonian_cycle, \
    symmetric_two_packing_decision, weak_two_linkage
from .packing import check_budget, packing_exists

DEFAULT_SEED = 1729
_RESAMPLE_LIMIT = 10_000


@dataclass(frozen=True)
class HarnessRow:
    """One corpus instance: oracle verdict vs solver verdict."""

    instance_id: str
    oracle: bool
    solver: bool
    certified: bool = True

    @property
    def agree(self) -> bool:
        return self.oracle == self.solver

    def line(self) -> str:
        def yn(b):
            return "yes" if b else "no"

        return "\t".join((self.instance_id, yn(self.oracle), yn(self.solver),
                          yn(self.agree)))


# ---------------------------------------------------------------------------
# Instance generators.
# ---------------------------------------------------------------------------


def random_connected_graph(rng: random.Random) -> Graph:
    """A random connected undirected graph: spanning tree plus extra edges."""
    n = rng.randint(4, 8)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < 0.35:
                edges.add((u, v))
    return build_graph(n, sorted(edges))


def random_digraph(rng: random.Random) -> MultiDigraph:
    """A random loop-free digraph, occasionally with one doubled arc."""
    n = rng.randint(2, 6)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    m = rng.randint(0, min(12, len(pairs)))
    arcs = sorted(rng.sample(pairs, m))
    if arcs and rng.random() < 0.25:
        arcs.append(rng.choice(arcs))
    return build_digraph(n, arcs)


def random_symmetric_digraph(rng: random.Random) -> MultiDigraph:
    """A random simple symmetric digraph (a bidirected random graph)."""
    n = rng.randint(3, 7)
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                arcs.extend([(u, v), (v, u)])
    return build_digraph(n, arcs)


def replacement_instances(count: int, seed: int = DEFAULT_SEED):
    """(instance_id, graph, copies, gadget) tuples for the Hamiltonicity family."""
    count = checked_int(count, "count")
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        g = random_connected_graph(rng)
        copies = rng.choice((1, 2))
        out.append((f"replacement-{idx:03d}", g, copies,
                    replacement_gadget(g, copies)))
    return out


def eulerian_instances(count: int, seed: int = DEFAULT_SEED):
    """(instance_id, linkage, gadget) tuples for the weak-2-linkage family.

    Digraphs are redrawn until the gadget output is Eulerian (balance
    always holds; connectivity is what the redraw buys).
    """
    count = checked_int(count, "count")
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        for _ in range(_RESAMPLE_LIMIT):
            n = rng.randint(4, 6)
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            m = rng.randint(3, 10)
            arcs = sorted(rng.sample(pairs, min(m, len(pairs))))
            s1, t1, s2, t2 = rng.sample(range(n), 4)
            inst = LinkageInstance(build_digraph(n, arcs), s1, t1, s2, t2)
            gadget = eulerian_gadget(inst, 3)
            if is_eulerian(gadget.digraph):
                out.append((f"eulerian-{idx:03d}", inst, gadget))
                break
        else:
            raise RuntimeError("could not draw a connected linkage instance")
    return out


def planar_instances(count: int, seed: int = DEFAULT_SEED):
    """(instance_id, linkage, gadget) tuples for the planar demand family.

    Inputs are random partial orientations of small grids with the four
    terminals on the corners, which puts them on the outer face in the
    cyclic order the construction needs.
    """
    count = checked_int(count, "count")
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        rows = rng.randint(2, 3)
        cols = rng.randint(2, 3)
        n = rows * cols

        def vid(r, c):
            return r * cols + c

        # Dense orientations and light demands keep the yes/no verdicts
        # roughly balanced; sparser draws make almost everything a no.
        arcs = []
        for r in range(rows):
            for c in range(cols):
                for (r2, c2) in ((r, c + 1), (r + 1, c)):
                    if r2 < rows and c2 < cols:
                        if rng.random() < 0.92:
                            arcs.append((vid(r, c), vid(r2, c2)))
                        if rng.random() < 0.92:
                            arcs.append((vid(r2, c2), vid(r, c)))
        inst = LinkageInstance(
            build_digraph(n, sorted(arcs)),
            s1=vid(0, 0), t1=vid(rows - 1, cols - 1),
            s2=vid(0, cols - 1), t2=vid(rows - 1, 0),
            d1=1 if rng.random() < 0.7 else 2,
            d2=1 if rng.random() < 0.7 else 2,
        )
        out.append((f"planar-{idx:03d}", inst, planar_gadget(inst, 2)))
    return out


def symmetric_instances(count: int, seed: int = DEFAULT_SEED):
    """(instance_id, digraph, terminals) tuples for the symmetric decision."""
    count = checked_int(count, "count")
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        d = random_symmetric_digraph(rng)
        n = d.vertex_count
        k = 2 if rng.random() < 0.6 else rng.randint(3, n)
        terminals = frozenset(rng.sample(range(n), k))
        out.append((f"symmetric-{idx:03d}", d, terminals))
    return out


def random_flow_network(rng: random.Random) -> FlowNetwork:
    """A random network whose flow is a known sum of paths and cycles.

    The flow is built by superposing random source->sink paths and random
    cycles with small weights, so it satisfies conservation by
    construction; the decomposition under test must recover *some* valid
    splitting, not the one used here.
    """
    n = rng.randint(4, 10)
    source, sink = 0, n - 1
    flow = {}

    def add_walk(seq, weight):
        for (u, v) in zip(seq, seq[1:]):
            flow[(u, v)] = flow.get((u, v), 0) + weight

    for _ in range(rng.randint(1, 4)):
        middle = rng.sample(range(1, n - 1), rng.randint(0, min(4, n - 2)))
        add_walk([source] + middle + [sink], rng.randint(1, 3))
    for _ in range(rng.randint(0, 3)):
        body = rng.sample(range(n), rng.randint(2, min(5, n)))
        add_walk(body + [body[0]], rng.randint(1, 3))
    arcs = sorted(flow)
    return FlowNetwork(build_digraph(n, arcs), frozenset({source}),
                       frozenset({sink}), tuple(flow[a] for a in arcs))


# ---------------------------------------------------------------------------
# Corpus runners.
# ---------------------------------------------------------------------------


def _verdict(gadget: GadgetOutput, node_budget):
    res = packing_exists(gadget.digraph, gadget.terminals, gadget.threshold,
                         node_budget=node_budget)
    return res.exists, res.certified


def run_replacement(count: int, seed: int = DEFAULT_SEED,
                    node_budget: int | None = None) -> list:
    check_budget(node_budget)
    rows = []
    for instance_id, g, _, gadget in replacement_instances(count, seed):
        oracle = hamiltonian_cycle(g).decision
        solver, certified = _verdict(gadget, node_budget)
        rows.append(HarnessRow(instance_id, oracle, solver, certified))
    return rows


def run_eulerian(count: int, seed: int = DEFAULT_SEED,
                 node_budget: int | None = None) -> list:
    check_budget(node_budget)
    rows = []
    for instance_id, inst, gadget in eulerian_instances(count, seed):
        oracle = weak_two_linkage(inst.digraph, inst.s1, inst.t1,
                                  inst.s2, inst.t2).decision
        solver, certified = _verdict(gadget, node_budget)
        rows.append(HarnessRow(instance_id, oracle, solver, certified))
    return rows


def run_planar(count: int, seed: int = DEFAULT_SEED,
               node_budget: int | None = None) -> list:
    check_budget(node_budget)
    rows = []
    for instance_id, inst, gadget in planar_instances(count, seed):
        oracle = arc_disjoint_demand_paths(inst.digraph, inst.s1, inst.t1,
                                           inst.d1, inst.s2, inst.t2,
                                           inst.d2).decision
        solver, certified = _verdict(gadget, node_budget)
        rows.append(HarnessRow(instance_id, oracle, solver, certified))
    return rows


def run_symmetric(count: int, seed: int = DEFAULT_SEED,
                  node_budget: int | None = None) -> list:
    check_budget(node_budget)
    rows = []
    for instance_id, d, terminals in symmetric_instances(count, seed):
        oracle = symmetric_two_packing_decision(d, terminals)
        res = packing_exists(d, terminals, 2, node_budget=node_budget)
        rows.append(HarnessRow(instance_id, oracle, res.exists, res.certified))
    return rows


FAMILIES = {
    "replacement": run_replacement,
    "eulerian": run_eulerian,
    "planar": run_planar,
    "symmetric": run_symmetric,
}
