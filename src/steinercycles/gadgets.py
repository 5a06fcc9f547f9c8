"""Reduction gadgets that encode classical hard problems as packing bounds.

Three constructions, each turning an instance of a known NP-complete
problem into a digraph D with terminals S and a threshold L such that the
instance is a yes-instance exactly when D packs L arc-disjoint Steiner
cycles:

* `eulerian_gadget` encodes weak 2-linkage (two arc-disjoint demand paths)
  into an Eulerian digraph, balancing the input by the vertex excesses
  of `_excesses`; its ring is built so that the equivalence holds in both
  directions (the argument is in its docstring);
* `planar_gadget` encodes the two-demand-pair disjoint paths problem for
  planar inputs with all four terminals on the outer face, producing a
  planar digraph;
* `replacement_gadget` encodes undirected Hamiltonicity into a symmetric
  digraph by bidirecting subdivided parallel edge bundles.

Every multi-arc of the raw constructions is subdivided through a fresh
named vertex, so all outputs are simple digraphs.  Outputs carry a trace
mapping each new vertex to its role label, and new vertices are numbered
in a fixed documented order so identical inputs give identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Graph, MultiDigraph, build_digraph, checked_int, \
    checked_vertices, serialize_digraph


@dataclass(frozen=True)
class LinkageInstance:
    """A demand-pair routing instance: find arc-disjoint s1->t1 and s2->t2
    paths in `digraph` (d1 and d2 of them for the planar variant).

    For `planar_gadget` the caller asserts that the digraph is planar with
    the four terminals on the outer face in the cyclic order s1, s2, t1,
    t2; this is not checked here.
    """

    digraph: MultiDigraph
    s1: int
    t1: int
    s2: int
    t2: int
    d1: int | None = None
    d2: int | None = None

    def __post_init__(self):
        terms = checked_vertices(self.digraph.vertex_count,
                                 (self.s1, self.t1, self.s2, self.t2),
                                 distinct=True)
        demands = tuple(d if d is None else checked_int(d, "demand", 1)
                        for d in (self.d1, self.d2))
        for name, value in zip(("s1", "t1", "s2", "t2", "d1", "d2"),
                               terms + demands):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class GadgetOutput:
    """A reduction output: digraph, terminal set, target packing size, and
    a trace naming every vertex the construction added."""

    digraph: MultiDigraph
    terminals: frozenset
    threshold: int
    trace: dict


def _require_simple(simple: bool) -> None:
    if not simple:
        raise ValueError("the linkage digraph must be a simple digraph "
                         "(no parallel arcs)")


def _excesses(out, into, extra_arcs):
    """Per-vertex out-degree minus in-degree after adding extra_arcs, from
    the degree lists of `MultiDigraph.support`."""
    exc = [o - i for o, i in zip(out, into)]
    for (u, v) in extra_arcs:
        exc[u] += 1
        exc[v] -= 1
    return exc


def eulerian_gadget(inst: LinkageInstance, k: int) -> GadgetOutput:
    """Encode weak 2-linkage into an Eulerian packing instance.

    The ring x_0, x_1, ..., x_k is spliced into the input; its terminals
    are x_1..x_k, and x_0 is an extra non-terminal ring vertex.  Indices
    are cyclic, p is the total positive excess from `_excesses` (return
    arcs t1 -> s1 and t2 -> s2 included), and every ring arc copy is
    subdivided by its own vertex.  Arcs:

    * forward x_i -> x_{i+1}: one copy for i = 1, p copies for x_k -> x_0,
      p+1 copies otherwise;
    * backward x_{i+1} -> x_i: one copy each, except none for x_2 -> x_1;
    * splices x_2 -> s1, t1 -> x_1, x_k -> s2 and t2 -> x_0;
    * balancing vertices s and t (only when p > 0): p subdivided arcs
      x_1 -> s and t -> x_2, plus subdivided s -> v and v -> t arcs, one
      per unit of each input vertex v's excess from `_excesses`.

    Every ring vertex has in- and out-degree p+2, the threshold.

    Completeness: given arc-disjoint paths P1: s1 ~> t1 and P2: s2 ~> t2,
    the rest of the input plus the s and t arcs carries p arc-disjoint
    s ~> t paths Q (there every input vertex is balanced, s has p more
    out- than in-arcs and t p more in- than out-arcs).  The p+2 cycles
    are x_0 x_1 s Q t x_2 .. x_k x_0 for each Q, x_0 x_k x_{k-1} .. x_2
    P1 x_1 x_0, and x_0 x_1 .. x_k P2 x_0.

    Soundness: take p+2 arc-disjoint Steiner cycles.  They use every arc
    at every terminal, so all p+2 arcs out of x_0 are used; x_0 is then on
    every cycle, once.  The only ways back into the ring are t1 -> x_1,
    t2 -> x_0 and the arcs out of t; no path from s1 or s2 reaches s, and
    t leads only to x_2.  The cycle C through x_1 -> x_0 enters x_1 from
    t1 (from x_0 it would close without x_2) and goes on to x_k.  The
    other p+1 cycles enter x_k from x_{k-1}, so they leave it by the p
    arcs to x_0 and by x_k -> s2, and C takes x_k -> x_{k-1}.  From there
    the only way out of each vertex that C has not visited is backward,
    down to x_2, which C leaves by x_2 -> s1.  All ring vertices are then
    on C, so it returns by t1 -> x_1, and its s1 ~> t1 stretch lies in
    the input.  The cycle D through x_k -> s2 reaches x_k by forward arcs
    from x_2 (the backward arcs are C's), so a return through t to x_2
    would close it without x_0 and x_1.  As t1 -> x_1 is C's, D returns
    by t2 -> x_0, and its s2 ~> t2 stretch lies in the input too.  C and
    D differ, so the two stretches are arc-disjoint demand paths.

    Vertex ids: the ring follows the input vertices, in ring order from
    x_2 (x_2, x_3, .., x_k, x_0, x_1).  Cycles are anchored at the
    smallest terminal, and anchoring at x_2 gave the smallest search of
    the numberings tried.  The subdivision vertices, s, t and the
    balancing subdivisions come after.  Threshold: p+2.
    """
    k = checked_int(k, "ring size k", 3)
    g = inst.digraph
    capacity, _, _, out, into = g.support()
    _require_simple(len(capacity) == len(g.arcs))
    n = g.vertex_count
    exc = _excesses(out, into, [(inst.t1, inst.s1), (inst.t2, inst.s2)])
    p = sum(e for e in exc if e > 0)

    def x(i):
        # ring ids follow the input vertices, starting at x_2; i is cyclic
        return n + (i - 2) % (k + 1)

    trace = {x(i): f"x_{i}" for i in range(k + 1)}
    next_id = n + k + 1

    def fresh(label):
        nonlocal next_id
        v = next_id
        next_id += 1
        trace[v] = label
        return v

    arcs = list(g.arcs)
    # ring arcs, one subdivision vertex per copy
    for i in range(k + 1):
        succ = (i + 1) % (k + 1)
        forward = 1 if i == 1 else p if i == k else p + 1
        for j in range(1, forward + 1):
            z = fresh(f"z^{j}_{{{i},{succ}}}")
            arcs.append((x(i), z))
            arcs.append((z, x(succ)))
        if i != 1:
            y = fresh(f"y_{{{succ},{i}}}")
            arcs.append((x(succ), y))
            arcs.append((y, x(i)))
    # the two splice points into the input
    arcs.append((x(2), inst.s1))
    arcs.append((inst.t1, x(1)))
    arcs.append((x(k), inst.s2))
    arcs.append((inst.t2, x(0)))
    if p > 0:
        u_ids = [fresh(f"u_{i}") for i in range(1, p + 1)]
        w_ids = [fresh(f"w_{i}") for i in range(1, p + 1)]
        s_id = fresh("s")
        t_id = fresh("t")
        for u in u_ids:
            arcs.append((x(1), u))
            arcs.append((u, s_id))
        for w in w_ids:
            arcs.append((t_id, w))
            arcs.append((w, x(2)))
        for v in range(n):
            for _ in range(max(0, exc[v])):
                q = fresh("A'-subdivision")
                arcs.append((s_id, q))
                arcs.append((q, v))
        for v in range(n):
            for _ in range(max(0, -exc[v])):
                q = fresh("A'-subdivision")
                arcs.append((v, q))
                arcs.append((q, t_id))
    out = build_digraph(next_id, arcs)
    terminals = frozenset(x(i) for i in range(1, k + 1))
    return GadgetOutput(out, terminals, p + 2, trace)


def planar_gadget(inst: LinkageInstance, k: int) -> GadgetOutput:
    """Encode two planar demand pairs into a planar packing instance.

    The ring x_1..x_k is joined by d2 subdivided forward chains and d1
    subdivided backward chains between consecutive ring vertices, plus d1
    subdivided x_1->s1 and t1->x_k arcs and d2 subdivided x_k->s2 and
    t2->x_1 arcs.  With the input planar and its terminals on the outer
    face in cyclic order s1, s2, t1, t2, the output is planar, and it packs
    d1+d2 Steiner cycles exactly when the input routes d1 arc-disjoint
    s1->t1 paths and d2 s2->t2 paths, all disjoint.  Threshold: d1+d2.
    """
    k = checked_int(k, "ring size k", 2)
    if inst.d1 is None or inst.d2 is None:
        raise ValueError("the planar construction needs both demands d1, d2")
    g = inst.digraph
    _require_simple(g.is_simple())
    n = g.vertex_count
    d1, d2 = inst.d1, inst.d2

    def x(i):
        return n + i - 1

    trace = {x(i): f"x_{i}" for i in range(1, k + 1)}
    next_id = n + k

    def fresh(label):
        nonlocal next_id
        v = next_id
        next_id += 1
        trace[v] = label
        return v

    arcs = list(g.arcs)
    for a in range(1, d1 + 1):
        for i in range(1, k):
            q = fresh(f"q^{a}_{{{i + 1},{i}}}")
            arcs.append((x(i + 1), q))
            arcs.append((q, x(i)))
        e = fresh(f"e_{a}")
        arcs.append((x(1), e))
        arcs.append((e, inst.s1))
        e2 = fresh(f"e'_{a}")
        arcs.append((inst.t1, e2))
        arcs.append((e2, x(k)))
    for b in range(1, d2 + 1):
        for i in range(1, k):
            q = fresh(f"p^{b}_{{{i},{i + 1}}}")
            arcs.append((x(i), q))
            arcs.append((q, x(i + 1)))
        f = fresh(f"f_{b}")
        arcs.append((x(k), f))
        arcs.append((f, inst.s2))
        f2 = fresh(f"f'_{b}")
        arcs.append((inst.t2, f2))
        arcs.append((f2, x(1)))
    out = build_digraph(next_id, arcs)
    terminals = frozenset(x(i) for i in range(1, k + 1))
    return GadgetOutput(out, terminals, d1 + d2, trace)


def replacement_gadget(g: Graph, copies: int) -> GadgetOutput:
    """Encode undirected Hamiltonicity into a symmetric packing instance.

    Each edge {i, j} becomes `copies` parallel two-way channels, each
    subdivided by its own vertex and then bidirected (four arcs per
    channel).  With S = all original vertices and threshold = copies, the
    output packs `copies` disjoint Steiner cycles exactly when g has a
    Hamiltonian cycle: one Hamiltonian cycle yields a cycle per channel
    index, and any Steiner cycle projects back onto a Hamiltonian cycle.
    The output is always symmetric, Eulerian when g is connected, and
    planar when g is planar.
    """
    copies = checked_int(copies, "channels per edge", 1)
    n = g.vertex_count
    trace = {}
    next_id = n
    arcs = []
    for (i, j) in sorted(g.edges):
        for a in range(1, copies + 1):
            v = next_id
            next_id += 1
            trace[v] = f"v^{a}_{{{i},{j}}}"
            arcs.extend([(i, v), (v, j), (j, v), (v, i)])
    out = build_digraph(next_id, arcs)
    return GadgetOutput(out, frozenset(range(n)), copies, trace)


def serialize_gadget(out: GadgetOutput) -> str:
    """Digraph text format plus trace, terminal, and threshold sections."""
    lines = [serialize_digraph(out.digraph).rstrip("\n")]
    for v in sorted(out.trace):
        lines.append(f"role {v} {out.trace[v]}")
    lines.append("S: " + ",".join(str(v) for v in sorted(out.terminals)))
    lines.append(f"L: {out.threshold}")
    return "\n".join(lines) + "\n"
