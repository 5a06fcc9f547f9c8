"""Independent deciders for the problems the gadgets encode.

These are the ground-truth side of the reduction-equivalence harness: slow
but straightforward searches that share none of the packing solver's
search.  What they share with the solver is `digraph`: parsing and
validation, the capacities and adjacency masks of `MultiDigraph.support`,
and the one max-flow, `digraph.capped_flow`, which the tests check
against networkx.  There is one exhaustive search, `_lex_paths`: the
simple s->t paths, or with t = s the simple cycles through s, in
lexicographic order, over ascending neighbour lists read once from the
masks.  `arc_disjoint_demand_paths` places its paths one demand slot at a time
(with max-flow prechecks for quick refusals); `weak_two_linkage` is that
search with both demands 1.  `hamiltonian_cycle` is its first cycle
through every vertex.  `symmetric_two_packing_decision` answers whether a
symmetric digraph packs two disjoint Steiner cycles: for two terminals
by the multiplicities of their 2-cycle and a polynomial vertex-capacity
max-flow on the underlying graph, for more by its first cycle through the
terminals, since the reversal of one cycle provides the second (bounded
exhaustive search standing in for the polynomial algorithm cited for that
case in the literature).

All searches scan neighbours in ascending order and return the first
witness found, so answers are deterministic.  They keep their own stacks,
so no input is too deep for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .digraph import Graph, MultiDigraph, bits, capped_flow, checked_int, \
    checked_vertices, validate_terminals


@dataclass(frozen=True)
class OracleAnswer:
    """A yes/no answer; yes always carries a substantiating witness."""

    decision: bool
    witness: tuple | None = None


def _pairs(path):
    """Consecutive ordered pairs of a path."""
    return zip(path, path[1:])


def _lex_paths(adj, s, t, residual=None, lower=None, through=frozenset()):
    """Yield simple s->t paths in lexicographic order, strictly greater
    than `lower` when given, that pass every vertex of `through`; with
    t = s, the simple cycles of at least two arcs through s.

    `adj[v]` lists the out-neighbours of v, ascending.  When `residual`
    is given, only arcs it maps to a positive count are used; it is read as
    the search goes, so a caller that changes it between two paths changes
    the paths that follow.
    """
    seq = [s]
    on_path = {s}
    # one frame per path vertex: its neighbours left to scan, and lower's
    # next entry while the path equals lower's prefix (else None)
    frames = [[iter(adj[s]), lower[1] if lower else None]]
    while frames:
        heads, lo = frames[-1]
        v = seq[-1]
        for w in heads:
            if residual is not None and residual.get((v, w), 0) <= 0:
                continue
            if lo is not None and w < lo:
                continue
            if w == t:
                # w == lo: equal to `lower` or a proper prefix of it
                if w != lo and (t != s or len(seq) >= 2) \
                        and through <= on_path:
                    yield tuple(seq) + (t,)
            elif w not in on_path:
                seq.append(w)
                on_path.add(w)
                i = len(seq)
                frames.append([iter(adj[w]),
                               lower[i] if w == lo and i < len(lower) else None])
                break
        else:
            frames.pop()
            on_path.discard(seq.pop())


def arc_disjoint_demand_paths(d: MultiDigraph, s1, t1, d1: int,
                              s2, t2, d2: int) -> OracleAnswer:
    """Are there d1 s1->t1 paths and d2 s2->t2 paths, all pairwise
    arc-disjoint?

    Two max-flow prechecks refuse instances that cannot even meet one
    demand alone; otherwise paths are routed by backtracking, each demand
    class in lexicographically nondecreasing order.  The witness is a pair
    of path tuples, one per demand.
    """
    s1, t1, s2, t2 = checked_vertices(d.vertex_count, (s1, t1, s2, t2),
                                      distinct=True)
    d1, d2 = checked_int(d1, "demand", 1), checked_int(d2, "demand", 1)
    caps, succ, pred, _, _ = d.support()
    if (capped_flow(caps, succ, pred, s1, t1, d1) < d1
            or capped_flow(caps, succ, pred, s2, t2, d2) < d2):
        return OracleAnswer(False, None)
    adj = [list(bits(heads)) for heads in succ]
    residual = dict(caps)
    ends = [(s1, t1)] * d1 + [(s2, t2)] * d2
    chosen = []

    def candidates(i):
        # The paths for slot i.  Paths of one demand are placed in
        # nondecreasing order, so each slot after a demand's first starts
        # from the path before it: again if capacity allows, then greater.
        s, t = ends[i]
        lower = chosen[-1] if i not in (0, d1) else None
        paths = _lex_paths(adj, s, t, residual, lower)
        if lower is not None and all(residual[p] > 0 for p in _pairs(lower)):
            paths = chain((lower,), paths)
        return paths

    # stack[i] iterates slot i's paths, and chosen[i] is the one placed
    # while slot i + 1 searches.  A slot's path goes back into the residual
    # before its iterator advances, which reads the residual lazily.
    stack = [candidates(0)]
    while stack:
        if len(chosen) == len(stack):
            for p in _pairs(chosen.pop()):
                residual[p] += 1
        path = next(stack[-1], None)
        if path is None:
            stack.pop()
            continue
        for p in _pairs(path):
            residual[p] -= 1
        chosen.append(path)
        if len(chosen) == len(ends):
            return OracleAnswer(True, (tuple(chosen[:d1]), tuple(chosen[d1:])))
        stack.append(candidates(len(chosen)))
    return OracleAnswer(False, None)


def weak_two_linkage(d: MultiDigraph, s1, t1, s2, t2) -> OracleAnswer:
    """Are there arc-disjoint s1->t1 and s2->t2 paths?  The demand-path
    search with both demands 1; the witness is its first path pair."""
    ans = arc_disjoint_demand_paths(d, s1, t1, 1, s2, t2, 1)
    if not ans.decision:
        return ans
    (first,), (second,) = ans.witness
    return OracleAnswer(True, (first, second))


def hamiltonian_cycle(g: Graph) -> OracleAnswer:
    """Hamiltonian cycle of an undirected graph: the oracle search's first
    cycle through every vertex.  The witness starts at vertex 0, and its
    second vertex is smaller than its last, since the first cycle in
    lexicographic order comes before its reversal."""
    n = g.vertex_count
    if n < 3:
        return OracleAnswer(False, None)
    cycle = next(_lex_paths([g.neighbors(v) for v in range(n)], 0, 0,
                            through=frozenset(range(n))), None)
    return OracleAnswer(cycle is not None, cycle)


def symmetric_two_packing_decision(d: MultiDigraph, terminals) -> bool:
    """Does a symmetric digraph pack two arc-disjoint Steiner cycles?

    For three or more terminals one Steiner cycle suffices (its reversal
    is a disjoint second), so existence is checked directly.  For exactly
    two terminals u, v, a Steiner cycle other than the 2-cycle (u, v, u)
    is two internally disjoint u-v paths of the underlying graph, and its
    reversal is a disjoint second cycle.  So the answer is yes when the
    2-cycle fits twice, both (u, v) and (v, u) having multiplicity at
    least 2, and otherwise whether the underlying graph carries two
    internally disjoint u-v paths, decided by a unit-vertex-capacity
    max-flow, with no cycle search at all.
    """
    caps, succ, pred, _, _ = d.support()
    if succ != pred:
        raise ValueError("this decision procedure requires a symmetric digraph")
    terminals = validate_terminals(d, terminals)
    if len(terminals) >= 3:
        start = min(terminals)
        adj = [list(bits(heads)) for heads in succ]
        return next(_lex_paths(adj, start, start, through=terminals),
                    None) is not None
    u, v = sorted(terminals)
    if min(caps[(u, v)], caps[(v, u)]) >= 2:
        return True
    # x splits into 2x -> 2x + 1; an edge a-b, both arcs (a, b) and (b, a)
    # in a symmetric digraph, becomes the arcs 2a + 1 -> 2b and 2b + 1 -> 2a
    n = d.vertex_count
    arcs = [(2 * x, 2 * x + 1) for x in range(n)]
    arcs += [(2 * a + 1, 2 * b) for a in range(n) for b in bits(succ[a])]
    return capped_flow(*MultiDigraph(2 * n, arcs).support()[:3],
                       2 * u + 1, 2 * v, 2) == 2
