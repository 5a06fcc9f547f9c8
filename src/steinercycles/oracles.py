"""Independent deciders for the problems the gadgets encode.

These are the ground-truth side of the reduction-equivalence harness: slow
but straightforward searches with no code shared with the packing solver.
`weak_two_linkage` and `arc_disjoint_demand_paths` answer routing
questions by exhaustive path search (with a max-flow precheck for quick
refusals), `hamiltonian_cycle` is a plain backtracker, and
`symmetric_two_packing_decision` answers whether a symmetric digraph packs
two disjoint Steiner cycles: for two terminals via a polynomial
vertex-capacity max-flow on the underlying graph, for more by a plain
backtracking search for a single Steiner cycle, whose reversal then
provides the second (bounded exhaustive search standing in for the
polynomial algorithm cited for that case in the literature).

All searches scan neighbours in ascending order and return the first
witness found, so answers are deterministic.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass

from .digraph import Graph, MultiDigraph, is_symmetric, underlying_graph, \
    validate_terminals


@dataclass(frozen=True)
class OracleAnswer:
    """A yes/no answer; yes always carries a substantiating witness."""

    decision: bool
    witness: tuple | None = None


def _check_four_distinct(d: MultiDigraph, terms) -> None:
    n = d.vertex_count
    if any(not 0 <= v < n for v in terms):
        raise ValueError(f"terminal out of range 0..{n - 1}: {terms}")
    if len(set(terms)) != len(terms):
        raise ValueError(f"terminals must be distinct, got {terms}")


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


def _reachable(adj, residual, s, t) -> bool:
    seen = {s}
    stack = [s]
    while stack:
        x = stack.pop()
        if x == t:
            return True
        for y in adj.get(x, ()):
            if y not in seen and residual.get((x, y), 0) > 0:
                seen.add(y)
                stack.append(y)
    return t in seen


def _max_flow(caps: dict, s, t) -> int:
    """Edmonds-Karp on integer arc capacities given as a (tail, head) dict."""
    residual = defaultdict(int, caps)
    adj = defaultdict(set)
    for (a, b) in caps:
        adj[a].add(b)
        adj[b].add(a)
    adj = {x: sorted(ys) for x, ys in adj.items()}
    flow = 0
    while True:
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            x = queue.popleft()
            for y in adj.get(x, ()):
                if y not in parent and residual[(x, y)] > 0:
                    parent[y] = x
                    queue.append(y)
        if t not in parent:
            return flow
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


def weak_two_linkage(d: MultiDigraph, s1, t1, s2, t2) -> OracleAnswer:
    """Are there arc-disjoint s1->t1 and s2->t2 paths?

    Exhausts candidate first paths in lexicographic order; for each, the
    second demand reduces to reachability in the leftover arcs.  The
    witness is the lexicographically first path pair.
    """
    _check_four_distinct(d, (s1, t1, s2, t2))
    adj = _heads(d)
    residual = Counter(d.arcs)

    def has_cap(u, v):
        return residual.get((u, v), 0) > 0

    for first in _lex_paths(adj, has_cap, s1, t1):
        for p in _pairs(first):
            residual[p] -= 1
        if _reachable(adj, residual, s2, t2):
            second = next(_lex_paths(adj, has_cap, s2, t2))
            return OracleAnswer(True, (first, second))
        for p in _pairs(first):
            residual[p] += 1
    return OracleAnswer(False, None)


def arc_disjoint_demand_paths(d: MultiDigraph, s1, t1, d1: int,
                              s2, t2, d2: int) -> OracleAnswer:
    """Are there d1 s1->t1 paths and d2 s2->t2 paths, all pairwise
    arc-disjoint?

    Two max-flow prechecks refuse instances that cannot even meet one
    demand alone; otherwise paths are routed by backtracking, each demand
    class in lexicographically nondecreasing order.  The witness is a pair
    of path tuples, one per demand.
    """
    _check_four_distinct(d, (s1, t1, s2, t2))
    if d1 < 1 or d2 < 1:
        raise ValueError(f"demands must be at least 1, got {(d1, d2)}")
    caps = Counter(d.arcs)
    if _max_flow(caps, s1, t1) < d1 or _max_flow(caps, s2, t2) < d2:
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


def hamiltonian_cycle(g: Graph) -> OracleAnswer:
    """Backtracking Hamiltonian cycle search on an undirected graph.

    The witness starts at vertex 0 and is oriented so its second vertex is
    smaller than its last, making it unique per cycle.
    """
    n = g.vertex_count
    if n < 3:
        return OracleAnswer(False, None)
    path = [0]
    visited = {0}

    def rec():
        v = path[-1]
        if len(path) == n:
            return g.has_edge(v, 0) and path[1] < path[-1]
        for w in g.neighbors(v):
            if w in visited:
                continue
            path.append(w)
            visited.add(w)
            if rec():
                return True
            path.pop()
            visited.discard(w)
        return False

    if rec():
        return OracleAnswer(True, tuple(path) + (0,))
    return OracleAnswer(False, None)


def _steiner_cycle_exists(d: MultiDigraph, terminals) -> bool:
    """Is there a simple directed cycle through every terminal?

    Grows simple paths from the smallest terminal, neighbours in ascending
    order, and closes a path back to it once every terminal is on it.
    """
    adj = _heads(d)
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

    return rec()


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
        return _steiner_cycle_exists(d, terminals)
    u, v = sorted(terminals)
    g = underlying_graph(d)
    caps = {}
    for x in range(g.vertex_count):
        caps[(2 * x, 2 * x + 1)] = 1 if x not in (u, v) else 2
    for (a, b) in g.edges:
        caps[(2 * a + 1, 2 * b)] = 1
        caps[(2 * b + 1, 2 * a)] = 1
    return _max_flow(caps, 2 * u + 1, 2 * v) >= 2
