"""Multidigraph core: construction, structural predicates, subdivision, text I/O.

Vertices are dense 0-based integers.  Arcs are ordered pairs; parallel arcs
are allowed (each occurrence is a separate instance, identified by its
position in the arc list) but loops never are.  A digraph is *simple* when
every arc has multiplicity one.

The planarity test is exact and runs in O(n + m) time: after Euler's edge
bound it runs the left-right test (de Fraysseix and Rosenstiehl; U. Brandes,
"The Left-Right Planarity Test", 2009) on each connected component.  It
returns a verdict only and builds no embedding.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import cached_property


class MultiDigraph:
    """A directed multigraph on vertices 0..vertex_count-1, without loops."""

    __slots__ = ("vertex_count", "arcs", "__dict__")

    def __init__(self, vertex_count: int, arcs):
        self.vertex_count = vertex_count
        self.arcs = tuple((int(u), int(v)) for (u, v) in arcs)

    def __eq__(self, other):
        if not isinstance(other, MultiDigraph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.arcs == other.arcs

    def __hash__(self):
        return hash((self.vertex_count, self.arcs))

    def __repr__(self):
        return f"MultiDigraph(n={self.vertex_count}, m={len(self.arcs)})"

    @cached_property
    def multiplicity(self) -> Counter:
        """Counter mapping each ordered pair to its number of instances."""
        return Counter(self.arcs)

    @cached_property
    def _out_adj(self) -> dict:
        adj = {v: [] for v in range(self.vertex_count)}
        for (u, v) in self.arcs:
            adj[u].append(v)
        return {u: tuple(sorted(set(heads))) for u, heads in adj.items()}

    @cached_property
    def _in_adj(self) -> dict:
        adj = {v: [] for v in range(self.vertex_count)}
        for (u, v) in self.arcs:
            adj[v].append(u)
        return {v: tuple(sorted(set(tails))) for v, tails in adj.items()}

    @cached_property
    def _out_degree(self) -> dict:
        deg = {v: 0 for v in range(self.vertex_count)}
        for (u, _) in self.arcs:
            deg[u] += 1
        return deg

    @cached_property
    def _in_degree(self) -> dict:
        deg = {v: 0 for v in range(self.vertex_count)}
        for (_, v) in self.arcs:
            deg[v] += 1
        return deg

    def successors(self, v: int) -> tuple:
        """Distinct heads of arcs leaving v, ascending."""
        return self._out_adj[v]

    def predecessors(self, v: int) -> tuple:
        """Distinct tails of arcs entering v, ascending."""
        return self._in_adj[v]

    def out_degree(self, v: int) -> int:
        """Number of arc instances leaving v."""
        return self._out_degree[v]

    def in_degree(self, v: int) -> int:
        """Number of arc instances entering v."""
        return self._in_degree[v]

    def has_arc(self, u: int, v: int) -> bool:
        return self.multiplicity[(u, v)] > 0

    def is_simple(self) -> bool:
        """True when no ordered pair occurs more than once."""
        return all(c <= 1 for c in self.multiplicity.values())

    def _is_twin_pair(self, r: int, v: int) -> bool:
        """True when swapping r and v maps the arc multiset onto itself.

        That holds when mult(r, v) = mult(v, r) and, for every other vertex
        w, mult(r, w) = mult(v, w) and mult(w, r) = mult(w, v).  The check
        reads only the arcs at r and v.
        """
        mult = self.multiplicity
        if mult[(r, v)] != mult[(v, r)]:
            return False
        for w in self._out_adj[r] + self._out_adj[v]:
            if w != r and w != v and mult[(r, w)] != mult[(v, w)]:
                return False
        for w in self._in_adj[r] + self._in_adj[v]:
            if w != r and w != v and mult[(w, r)] != mult[(w, v)]:
                return False
        return True

    @cached_property
    def twin_classes(self) -> tuple:
        """Partition of the vertices into classes of pairwise twins.

        Each class is an ascending tuple, and the classes are ordered by
        their first vertex.  Every member of a class is verified by
        `_is_twin_pair` against the class's first member, so every
        permutation within a class is an automorphism.  Being twins is an
        equivalence relation, and within one class either no two members
        are adjacent or every two are.  So twins share their sets of
        successors and predecessors (open key), or those sets with the
        vertex added (closed key), and bucketing by both keys finds every
        twin pair.  On a simple digraph each bucket is one class, so every
        vertex is checked once and the whole takes O(n + m) expected time;
        parallel arcs can put several classes in one bucket, and a vertex
        is then checked against the first member of each.
        """
        buckets = {}
        for v in range(self.vertex_count):
            out, inn = frozenset(self._out_adj[v]), frozenset(self._in_adj[v])
            own = frozenset((v,))
            buckets.setdefault(("open", out, inn), []).append(v)
            buckets.setdefault(("closed", out | own, inn | own), []).append(v)
        leader = list(range(self.vertex_count))
        for bucket in buckets.values():
            firsts = []
            for v in bucket:
                if leader[v] != v:
                    continue
                r = next((r for r in firsts if self._is_twin_pair(r, v)), None)
                if r is None:
                    firsts.append(v)
                else:
                    leader[v] = r
        classes = {}
        for v in range(self.vertex_count):
            classes.setdefault(leader[v], []).append(v)
        return tuple(tuple(c) for c in classes.values())


class Graph:
    """An undirected simple graph; edges stored as sorted pairs."""

    __slots__ = ("vertex_count", "edges", "_adjacency")

    def __init__(self, vertex_count: int, edges):
        self.vertex_count = vertex_count
        self.edges = frozenset(
            (min(int(u), int(v)), max(int(u), int(v))) for (u, v) in edges
        )
        adjacency = [[] for _ in range(vertex_count)]
        for (u, v) in self.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        self._adjacency = tuple(tuple(sorted(ns)) for ns in adjacency)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={len(self.edges)})"

    def neighbors(self, v: int) -> tuple:
        """Neighbours of v, ascending."""
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def is_connected(self) -> bool:
        n = self.vertex_count
        if n <= 1:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == n


def build_digraph(vertex_count: int, arcs) -> MultiDigraph:
    """Validate and build a MultiDigraph.

    Raises ValueError for a negative vertex count, an out-of-range endpoint,
    or a loop arc.  Parallel arcs are kept, in the given order.
    """
    if vertex_count < 0:
        raise ValueError(f"vertex count must be nonnegative, got {vertex_count}")
    checked = []
    for arc in arcs:
        u, v = int(arc[0]), int(arc[1])
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(
                f"arc ({u}, {v}) has an endpoint outside 0..{vertex_count - 1}"
            )
        if u == v:
            raise ValueError(f"loop arc ({u}, {v}) is not allowed")
        checked.append((u, v))
    return MultiDigraph(vertex_count, checked)


def build_graph(vertex_count: int, edges) -> Graph:
    """Validate and build an undirected simple Graph (no loops, deduplicated)."""
    if vertex_count < 0:
        raise ValueError(f"vertex count must be nonnegative, got {vertex_count}")
    checked = []
    for edge in edges:
        u, v = int(edge[0]), int(edge[1])
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(
                f"edge ({u}, {v}) has an endpoint outside 0..{vertex_count - 1}"
            )
        if u == v:
            raise ValueError(f"loop edge ({u}, {v}) is not allowed")
        checked.append((u, v))
    return Graph(vertex_count, checked)


def validate_terminals(d: MultiDigraph, members) -> frozenset:
    """Validate a terminal set: at least two distinct vertices of d.

    Returns the set as a frozenset of ints.  Raises ValueError otherwise.
    """
    terminals = frozenset(int(v) for v in members)
    if len(terminals) < 2:
        raise ValueError("a terminal set needs at least two vertices")
    for v in terminals:
        if not (0 <= v < d.vertex_count):
            raise ValueError(f"terminal {v} outside 0..{d.vertex_count - 1}")
    return terminals


def underlying_graph(d: MultiDigraph) -> Graph:
    """The undirected simple graph obtained by forgetting arc directions."""
    return Graph(d.vertex_count, set((min(u, v), max(u, v)) for (u, v) in d.arcs))


def min_semi_degree(d: MultiDigraph) -> int:
    """min over all vertices of min(out-degree, in-degree), with multiplicity."""
    if d.vertex_count == 0:
        return 0
    return min(min(d.out_degree(v), d.in_degree(v)) for v in range(d.vertex_count))


def is_eulerian(d: MultiDigraph) -> bool:
    """True iff the underlying graph is connected and every vertex is balanced.

    Balanced means in-degree equals out-degree counting multiplicities.
    Isolated vertices count against connectivity.
    """
    for v in range(d.vertex_count):
        if d.out_degree(v) != d.in_degree(v):
            return False
    return underlying_graph(d).is_connected()


def is_symmetric(d: MultiDigraph) -> bool:
    """True iff every arc (u, v) has the reverse arc (v, u) present."""
    mult = d.multiplicity
    return all(mult[(v, u)] > 0 for (u, v) in mult if mult[(u, v)] > 0)


def subdivide_arc(d: MultiDigraph, arc) -> MultiDigraph:
    """Replace one instance of `arc` = (u, v) by u -> x -> v with a new vertex x.

    The first instance of the pair (in arc-list order) is removed; x gets id
    d.vertex_count and the two new arcs are appended at the end.  Raises
    ValueError when the pair is absent.  The operation preserves Eulerian-ness
    and planarity; a symmetric digraph generally stops being symmetric.
    """
    u, v = int(arc[0]), int(arc[1])
    try:
        pos = d.arcs.index((u, v))
    except ValueError:
        raise ValueError(f"arc ({u}, {v}) is not present") from None
    x = d.vertex_count
    arcs = list(d.arcs)
    del arcs[pos]
    arcs.append((u, x))
    arcs.append((x, v))
    return MultiDigraph(d.vertex_count + 1, arcs)


# ---------------------------------------------------------------------------
# Planarity: Euler bound, then the left-right test on each component.
# ---------------------------------------------------------------------------


def _component_is_planar(adj, root: int, height: list) -> bool:
    """Left-right planarity test of the component of `root` (Brandes 2009).

    Phase 1 orients each edge by a DFS from `root`, tree edges downwards and
    back edges upwards, and gives each oriented edge its lowpoint, second
    lowpoint and nesting depth.  Phase 2 repeats the DFS with the edges out
    of each vertex in nesting-depth order.  It keeps a stack of conflict
    pairs: two intervals of return edges that must lie on opposite sides of
    the tree path.  The component is planar iff no return edge is forced
    onto both sides.  Edges are (tail, head) pairs, and a conflict pair is
    the list [left low, left high, right low, right high], each side linked
    from high to low through `ref`.  Both phases use explicit stacks.
    `height` maps each vertex to its DFS depth, None while unvisited; the
    call fills it for the component.
    """
    height[root] = 0
    parent_edge = {root: None}
    lowpt, lowpt2, nesting = {}, {}, {}

    def finish(e):
        # e = (v, w) is done: set its nesting depth, pass its lowpoints up
        v = e[0]
        low = lowpt[e]
        nesting[e] = 2 * low + (lowpt2[e] < height[v])
        p = parent_edge[v]
        if p is None:
            return
        if low < lowpt[p]:
            lowpt2[p] = min(lowpt[p], lowpt2[e])
            lowpt[p] = low
        elif low > lowpt[p]:
            lowpt2[p] = min(lowpt2[p], low)
        else:
            lowpt2[p] = min(lowpt2[p], lowpt2[e])

    # phase 1: an edge is oriented once lowpt holds it
    stack, pos = [root], {root: 0}
    while stack:
        v = stack[-1]
        nbrs = adj[v]
        i = pos[v]
        while i < len(nbrs):
            w = nbrs[i]
            i += 1
            if (w, v) in lowpt:
                continue
            e = (v, w)
            lowpt[e] = lowpt2[e] = height[v]
            if height[w] is None:
                parent_edge[w] = e
                height[w] = height[v] + 1
                pos[v], pos[w] = i, 0
                stack.append(w)
                break
            lowpt[e] = height[w]
            finish(e)
        else:
            stack.pop()
            if parent_edge[v] is not None:
                finish(parent_edge[v])

    # bucket sort by nesting depth, which is below twice the vertex count
    buckets = [[] for _ in range(2 * len(parent_edge))]
    for e, depth in nesting.items():
        buckets[depth].append(e)
    ordered = {v: [] for v in parent_edge}
    for bucket in buckets:
        for (v, w) in bucket:
            ordered[v].append(w)

    S = []
    bottom, ref = {}, {}

    def conflicting(high, b):
        return high is not None and lowpt[high] > lowpt[b]

    def lowest(P):
        if P[1] is None:
            return lowpt[P[2]]
        if P[3] is None:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def add_constraints(ei, e):
        P = [None, None, None, None]
        # return edges of ei go to the right of P, or are aligned with e
        while True:
            Q = S.pop()
            if Q[1] is not None:
                Q = Q[2:] + Q[:2]
            if Q[1] is not None:
                return False
            if lowpt[Q[2]] > lowpt[e]:
                if P[3] is None:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            if len(S) == bottom[ei]:
                break
        # return edges of earlier siblings that conflict with ei go left
        while S and (conflicting(S[-1][1], ei) or conflicting(S[-1][3], ei)):
            Q = S.pop()
            if conflicting(Q[3], ei):
                Q = Q[2:] + Q[:2]
            if conflicting(Q[3], ei):
                return False
            ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[1] is None:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P[1] is not None or P[3] is not None:
            S.append(P)
        return True

    def integrate(ei):
        # after ei = (v, w) is explored, constrain its return edges
        v = ei[0]
        if lowpt[ei] < height[v] and ei[1] != ordered[v][0]:
            return add_constraints(ei, parent_edge[v])
        return True

    def trim(u):
        # drop the return edges that end at u, the DFS parent just re-entered
        while S and lowest(S[-1]) == height[u]:
            S.pop()
        if S:
            P = S[-1]
            for hi, lo in ((1, 0), (3, 2)):
                while P[hi] is not None and P[hi][1] == u:
                    P[hi] = ref.get(P[hi])
                if P[hi] is None:
                    P[lo] = None

    # phase 2: S is the conflict-pair stack; bottom[e] is its size when
    # the DFS entered e
    stack, pos = [root], {root: 0}
    while stack:
        v = stack[-1]
        ws = ordered[v]
        i = pos[v]
        while i < len(ws):
            w = ws[i]
            i += 1
            ei = (v, w)
            bottom[ei] = len(S)
            if parent_edge[w] == ei:
                pos[v], pos[w] = i, 0
                stack.append(w)
                break
            S.append([None, None, ei, ei])
            if not integrate(ei):
                return False
        else:
            stack.pop()
            e = parent_edge[v]
            if e is not None:
                trim(e[0])
                if not integrate(e):
                    return False
    return True


def graph_is_planar(g: Graph) -> bool:
    """Exact planarity test for an undirected simple graph, in O(n + m) time.

    A graph with n >= 3 vertices and more than 3n - 6 edges is not planar
    (Euler's bound).  Otherwise every connected component goes through the
    left-right test of de Fraysseix and Rosenstiehl, in the form of
    U. Brandes, "The Left-Right Planarity Test" (2009), and the graph is
    planar iff each component is.  Only the verdict is computed; no
    embedding is built.
    """
    n = g.vertex_count
    if n >= 3 and len(g.edges) > 3 * n - 6:
        return False
    height = [None] * n
    for root in range(n):
        if height[root] is None and not _component_is_planar(
                g._adjacency, root, height):
            return False
    return True


def is_planar(d: MultiDigraph) -> bool:
    """True iff the underlying simple graph of d is planar."""
    return graph_is_planar(underlying_graph(d))


# ---------------------------------------------------------------------------
# Text format: `n <vertex_count>` then one `a <tail> <head>` line per arc
# instance; lines starting with `#` are comments.  File order is instance
# identity, so parse/serialize round-trips bit for bit.
# ---------------------------------------------------------------------------


def parse_digraph(text: str) -> MultiDigraph:
    """Parse the digraph text format.  Raises ValueError on malformed input."""
    vertex_count = None
    arcs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if vertex_count is not None:
                raise ValueError(f"line {lineno}: duplicate n line")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'n <vertex_count>'")
            try:
                vertex_count = int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
        elif parts[0] == "a":
            if vertex_count is None:
                raise ValueError(f"line {lineno}: arc before the n line")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'a <tail> <head>'")
            try:
                arcs.append((int(parts[1]), int(parts[2])))
            except ValueError:
                raise ValueError(f"line {lineno}: bad arc endpoints") from None
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    if vertex_count is None:
        raise ValueError("missing n line")
    return build_digraph(vertex_count, arcs)


def serialize_digraph(d: MultiDigraph) -> str:
    """Emit the digraph text format, arcs in instance order."""
    lines = [f"n {d.vertex_count}"]
    lines.extend(f"a {u} {v}" for (u, v) in d.arcs)
    return "\n".join(lines) + "\n"
