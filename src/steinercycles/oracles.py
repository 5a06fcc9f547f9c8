"""Independent deciders for the problems the gadgets encode.

These are the ground-truth side of the reduction-equivalence harness: slow
but straightforward searches with no code shared with the packing solver.
There are two exhaustive searches.  The demand-path search answers
`arc_disjoint_demand_paths` by routing paths in lexicographic order (with
max-flow prechecks for quick refusals); `weak_two_linkage` is that search
with both demands 1.  The Steiner-cycle search finds the first simple
cycle through a terminal set; `hamiltonian_cycle` is that search with
every vertex a terminal.  `symmetric_two_packing_decision` answers
whether a symmetric digraph packs two disjoint Steiner cycles: for two
terminals via a polynomial vertex-capacity max-flow on the underlying
graph, for more by the Steiner-cycle search, since the reversal of one
cycle provides the second (bounded exhaustive search standing in for the
polynomial algorithm cited for that case in the literature).

All searches scan neighbours in ascending order and return the first
witness found, so answers are deterministic.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass

from .digraph import Graph, MultiDigraph, checked_int, checked_vertices, \
    is_symmetric, underlying_graph, validate_terminals


@dataclass(frozen=True)
class OracleAnswer:
    """A yes/no answer; yes always carries a substantiating witness."""

    decision: bool
    witness: tuple | None = None


def _pairs(path):
    """Consecutive ordered pairs of a path."""
    return zip(path, path[1:])


def _heads(d: MultiDigraph) -> dict:
    """Map each vertex with an arc out to its distinct heads, ascending."""
    heads = defaultdict(set)
    for (u, v) in d.arcs:
        heads[u].add(v)
    return {u: sorted(hs) for u, hs in heads.items()}


def _lex_paths(adj, has_cap, s, t, lower=None):
    """Yield simple s->t paths in lexicographic order, strictly greater
    than `lower` when given.  has_cap(u, v) gates usable arcs."""
    seq = [s]
    on_path = {s}

    def rec(tight):
        v = seq[-1]
        i = len(seq)
        lo = lower[i] if (tight and lower is not None and i < len(lower)) else None
        for w in adj.get(v, ()):
            if not has_cap(v, w):
                continue
            if lo is not None and w < lo:
                continue
            if w in on_path:
                continue
            still_tight = tight and lo is not None and w == lo
            if w == t:
                if still_tight:
                    # equal to `lower` or a proper prefix of it
                    continue
                yield tuple(seq) + (t,)
            else:
                seq.append(w)
                on_path.add(w)
                yield from rec(still_tight)
                seq.pop()
                on_path.discard(w)

    yield from rec(lower is not None)


def _flow_reaches(caps: dict, s, t, need: int) -> bool:
    """Is the s->t max flow at least `need`?  Edmonds-Karp on integer arc
    capacities given as a (tail, head) dict, stopped once it is."""
    residual = defaultdict(int, caps)
    adj = defaultdict(set)
    for (a, b) in caps:
        adj[a].add(b)
        adj[b].add(a)
    flow = 0
    while flow < need:
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            x = queue.popleft()
            for y in adj.get(x, ()):
                if y not in parent and residual[(x, y)] > 0:
                    parent[y] = x
                    queue.append(y)
        if t not in parent:
            return False
        steps = []
        y = t
        while parent[y] is not None:
            steps.append((parent[y], y))
            y = parent[y]
        aug = min(residual[p] for p in steps)
        for (a, b) in steps:
            residual[(a, b)] -= aug
            residual[(b, a)] += aug
        flow += aug
    return True


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
    caps = Counter(d.arcs)
    if not (_flow_reaches(caps, s1, t1, d1) and _flow_reaches(caps, s2, t2, d2)):
        return OracleAnswer(False, None)
    adj = _heads(d)
    residual = dict(caps)

    def has_cap(u, v):
        return residual.get((u, v), 0) > 0

    chosen = {1: [], 2: []}
    ends = {1: (s1, t1), 2: (s2, t2)}
    need = {1: d1, 2: d2}

    def place(kind, count, lower):
        if count == 0:
            if kind == 1:
                return place(2, need[2], None)
            return True
        if lower is not None and all(residual[p] > 0 for p in _pairs(lower)):
            if _attempt(kind, count, lower, lower):
                return True
        s, t = ends[kind]
        for path in _lex_paths(adj, has_cap, s, t, lower):
            if _attempt(kind, count, path, path):
                return True
        return False

    def _attempt(kind, count, path, lower):
        for p in _pairs(path):
            residual[p] -= 1
        chosen[kind].append(path)
        if place(kind, count - 1, lower):
            return True
        chosen[kind].pop()
        for p in _pairs(path):
            residual[p] += 1
        return False

    if place(1, need[1], None):
        return OracleAnswer(True, (tuple(chosen[1]), tuple(chosen[2])))
    return OracleAnswer(False, None)


def weak_two_linkage(d: MultiDigraph, s1, t1, s2, t2) -> OracleAnswer:
    """Are there arc-disjoint s1->t1 and s2->t2 paths?  The demand-path
    search with both demands 1; the witness is its first path pair."""
    ans = arc_disjoint_demand_paths(d, s1, t1, 1, s2, t2, 1)
    if not ans.decision:
        return ans
    (first,), (second,) = ans.witness
    return OracleAnswer(True, (first, second))


def _first_steiner_cycle(adj, terminals):
    """The lexicographically first simple cycle through every terminal, as
    a closed sequence from the smallest terminal, or None.

    `adj` maps a vertex to its out-neighbours, ascending.  Grows simple
    paths from the smallest terminal and closes one back to it once every
    terminal is on it.
    """
    start = min(terminals)
    path = [start]
    on_path = {start}

    def rec():
        for w in adj.get(path[-1], ()):
            if w == start:
                if len(path) >= 2 and terminals <= on_path:
                    return True
            elif w not in on_path:
                path.append(w)
                on_path.add(w)
                if rec():
                    return True
                path.pop()
                on_path.discard(w)
        return False

    return tuple(path) + (start,) if rec() else None


def hamiltonian_cycle(g: Graph) -> OracleAnswer:
    """Hamiltonian cycle of an undirected graph: the Steiner-cycle search
    with every vertex a terminal.  The witness starts at vertex 0, and its
    second vertex is smaller than its last, since the first cycle in
    lexicographic order comes before its reversal."""
    n = g.vertex_count
    if n < 3:
        return OracleAnswer(False, None)
    cycle = _first_steiner_cycle({v: g.neighbors(v) for v in range(n)},
                                 frozenset(range(n)))
    return OracleAnswer(cycle is not None, cycle)


def symmetric_two_packing_decision(d: MultiDigraph, terminals) -> bool:
    """Does a symmetric digraph pack two arc-disjoint Steiner cycles?

    For three or more terminals one Steiner cycle suffices (its reversal
    is a disjoint second), so existence is checked directly.  For exactly
    two terminals u, v the answer is whether the underlying graph carries
    two internally disjoint u-v paths, decided by a unit-vertex-capacity
    max-flow, with no cycle search at all.
    """
    if not is_symmetric(d):
        raise ValueError("this decision procedure requires a symmetric digraph")
    terminals = validate_terminals(d, terminals)
    if len(terminals) >= 3:
        return _first_steiner_cycle(_heads(d), terminals) is not None
    u, v = sorted(terminals)
    g = underlying_graph(d)
    caps = {}
    for x in range(g.vertex_count):
        caps[(2 * x, 2 * x + 1)] = 1 if x not in (u, v) else 2
    for (a, b) in g.edges:
        caps[(2 * a + 1, 2 * b)] = 1
        caps[(2 * b + 1, 2 * a)] = 1
    return _flow_reaches(caps, 2 * u + 1, 2 * v, 2)
