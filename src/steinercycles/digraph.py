"""Multidigraph core: construction, predicates, subdivision, max-flow, text I/O.

The one checked door for outside input: `build_digraph` and `build_graph`
check a vertex count and its arcs in one pass, and `checked_int` and
`checked_vertices` every other count, size and vertex list the package
takes.  A value that is not an integer (1.0, 2.5, "3") raises ValueError
and is never truncated; True counts as 1.  `read_lines` reads every text
format (digraphs, flow networks, witnesses) with the same line rules.

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

import sys
from collections import Counter
from numbers import Integral


class MultiDigraph:
    """A directed multigraph on vertices 0..vertex_count-1, without loops.

    A plain value: the vertex count and the arc tuple, stored as given
    (`build_digraph` checks them), are all it holds.
    Multiplicities, adjacency and degrees are built by the caller that
    needs them, in one pass (`support`), so nothing derived from the arcs
    stays attached to a digraph after a solve."""

    __slots__ = ("vertex_count", "arcs")

    def __init__(self, vertex_count: int, arcs):
        self.vertex_count = vertex_count
        self.arcs = tuple(arcs)

    def __eq__(self, other):
        if not isinstance(other, MultiDigraph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.arcs == other.arcs

    def __hash__(self):
        return hash((self.vertex_count, self.arcs))

    def __repr__(self):
        return f"MultiDigraph(n={self.vertex_count}, m={len(self.arcs)})"

    def support(self) -> tuple:
        """(capacity, succ, pred, out_deg, in_deg), built in one pass over
        the distinct ordered pairs and afresh for the caller to change.

        `capacity` is a Counter of each pair's multiplicity, keys in the
        order of their first instance in the arc list; bit w of succ[v] is
        set when an arc leaves v for w, bit u of pred[v] when an arc enters
        v from u; out_deg[v] and in_deg[v] count the arc instances leaving
        and entering v.  The one form of multiplicity, adjacency and degree
        in the package, in the order `capped_flow`, `twin_partition` and
        the solver take them."""
        n = self.vertex_count
        succ = [0] * n
        pred = [0] * n
        out_deg = [0] * n
        in_deg = [0] * n
        capacity = Counter(self.arcs)
        for (u, v), c in capacity.items():
            succ[u] |= 1 << v
            pred[v] |= 1 << u
            out_deg[u] += c
            in_deg[v] += c
        return capacity, succ, pred, out_deg, in_deg

    def is_simple(self) -> bool:
        """True when no ordered pair occurs more than once."""
        return len(set(self.arcs)) == len(self.arcs)


def twin_partition(capacity, succ, pred) -> tuple:
    """Partition of the vertices 0..len(succ)-1 into classes of pairwise twins.

    `capacity.get((u, v), 0)` is mult(u, v), the multiplicity of the pair,
    and `succ[v]` and `pred[v]` are bitmasks of the heads of the arcs
    leaving v and the tails of those entering it, as `MultiDigraph.support`
    builds them.  Each class is an ascending tuple, and the classes are
    ordered by their first vertex.  Swapping twins r and v maps the arc
    multiset onto itself, that is mult(r, v) = mult(v, r) and, for every
    other vertex w, mult(r, w) = mult(v, w) and mult(w, r) = mult(w, v).
    So every permutation within a class is an automorphism.  Being twins is
    an equivalence relation, and within one class either no two members
    are adjacent or every two are.  So twins share their sets of successors
    and predecessors (open key), or those sets with the vertex added
    (closed key), and bucketing by both keys finds every twin pair.

    When no capacity exceeds 1 the converse holds too: two vertices sharing
    either key have equal multiplicities to and from every other vertex,
    and mult(r, v) = mult(v, r) (both 0 under the open key, both 1 under
    the closed one).  No vertex then shares a key of each kind, since its
    two buckets' members would be twins of one another, adjacent and not.
    So each bucket is one class and is taken without a check, in O(n + m)
    expected time.  Parallel arcs can put several classes in one bucket;
    then every member is checked against the first member r of each class
    found so far in its bucket, by the swap condition above.
    """
    def swappable(r, v):
        # r and v share a bucket, so their masks agree off {r, v}.
        if capacity.get((r, v), 0) != capacity.get((v, r), 0):
            return False
        rest = ~((1 << r) | (1 << v))
        return (all(capacity[(r, w)] == capacity[(v, w)]
                    for w in bits(succ[r] & rest))
                and all(capacity[(w, r)] == capacity[(w, v)]
                        for w in bits(pred[r] & rest)))

    n = len(succ)
    leader = list(range(n))
    buckets = {}
    isolated = None
    for v in range(n):
        if not succ[v] and not pred[v]:
            # Vertices without arcs are pairwise twins; no check is needed.
            if isolated is None:
                isolated = v
            leader[v] = isolated
            continue
        # The open key is even and the closed key odd: each packs the two
        # masks into one int.
        own = 1 << v
        buckets.setdefault((succ[v] << n | pred[v]) << 1, []).append(v)
        buckets.setdefault(((succ[v] | own) << n | pred[v] | own) << 1 | 1,
                           []).append(v)
    simple = max(capacity.values(), default=1) == 1
    for bucket in buckets.values():
        if len(bucket) < 2:
            continue
        if simple:
            for v in bucket[1:]:
                leader[v] = bucket[0]
            continue
        firsts = []
        for v in bucket:
            if leader[v] != v:
                continue
            r = next((r for r in firsts if swappable(r, v)), None)
            if r is None:
                firsts.append(v)
            else:
                leader[v] = r
    classes = {}
    for v in range(n):
        classes.setdefault(leader[v], []).append(v)
    return tuple(tuple(c) for c in classes.values())


def bits(mask: int):
    """Yield the positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def capped_flow(capacity, succ, pred, x, y, goal) -> int:
    """min(goal, maxflow(x→y)): the maximum number of arc-disjoint x→y
    paths, stopped at goal.

    `capacity` maps each pair that carries capacity to a positive integer
    and any other pair to 0 or to nothing, and `succ` and `pred` are the
    masks of the pairs that carry capacity, as the first three entries of
    `MultiDigraph.support`; x != y.  The masks are not changed.

    The paths of one arc, x→y, and of two, x→w→y, are arc-disjoint, so
    they start the flow.  When the pairs x→y and x→w→y present already
    reach the goal, one path each, no capacity is read and no search is
    needed, as in a complete digraph.  The rest comes from unit augmenting
    paths, each found by a breadth-first search that grows one layer mask
    at a time.  `res[u]` holds every w with residual capacity on (u, w),
    that is capacity[(u, w)] minus the net flow on it, and `rpred[w]`
    every such u; the path is read back from y through one vertex of each
    earlier layer with a residual arc into the next.
    """
    mids = succ[x] & pred[y]
    if (succ[x] >> y & 1) + mids.bit_count() >= goal:
        return goal
    res = list(succ)
    rpred = list(pred)
    net = Counter()

    def push(u, v, c):
        net[(u, v)] += c
        net[(v, u)] -= c
        if capacity.get((u, v), 0) == net[(u, v)]:
            res[u] ^= 1 << v
            rpred[v] ^= 1 << u
        res[v] |= 1 << u
        rpred[u] |= 1 << v

    flow = capacity.get((x, y), 0)
    if flow:
        push(x, y, flow)
    for w in bits(mids):
        c = min(capacity[(x, w)], capacity[(w, y)])
        push(x, w, c)
        push(w, y, c)
        flow += c
    y_bit = 1 << y
    while flow < goal:
        layers = []
        front = seen = 1 << x
        while front and not seen & y_bit:
            layers.append(front)
            nxt = 0
            while front:
                low = front & -front
                nxt |= res[low.bit_length() - 1]
                front ^= low
            front = nxt & ~seen
            seen |= front
        if not seen & y_bit:
            return flow
        v = y
        for layer in reversed(layers):
            u = (rpred[v] & layer).bit_length() - 1
            push(u, v, 1)
            v = u
        flow += 1
    return goal


class Graph:
    """An undirected simple graph; edges are stored as given, as sorted
    pairs (`build_graph` checks and sorts them)."""

    __slots__ = ("vertex_count", "edges", "_adjacency")

    def __init__(self, vertex_count: int, edges):
        self.vertex_count = vertex_count
        self.edges = frozenset(edges)
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

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def is_integer(value) -> bool:
    """True for an int or another `numbers.Integral`, False for 1.0 or 1.5.

    Plain ints are tested first: the abstract-class check alone costs about
    half a microsecond, and every solve checks its terminals.
    """
    return type(value) is int or isinstance(value, Integral)


def checked_int(value, what: str, least: int = 0, most: int | None = None) -> int:
    """`value` as a plain int, when it is an integer from `least` to `most`
    (no upper limit when None).  Raises ValueError naming `what` otherwise."""
    if not is_integer(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if most is not None and not least <= value <= most:
        raise ValueError(f"{what} must be between {least} and {most}, "
                         f"got {value}")
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{what} must be {bound}, got {value}")
    return value


def checked_vertices(vertex_count: int, members, what: str = "terminal",
                     distinct: bool = False) -> tuple:
    """`members` as a tuple of plain ints, each a vertex in
    0..vertex_count-1, all different when `distinct`.  Raises ValueError
    naming `what` otherwise."""
    members = tuple(members)
    if set(map(type, members)) - {int}:
        if not all(map(is_integer, members)):
            raise ValueError(f"{what}s must be integers, got {members}")
        members = tuple(map(int, members))
    for v in members:
        if not 0 <= v < vertex_count:
            raise ValueError(f"{what} {v} outside 0..{vertex_count - 1}")
    if distinct and len(set(members)) != len(members):
        raise ValueError(f"{what}s must be distinct, got {members}")
    return members


def validate_terminals(d: MultiDigraph, members) -> frozenset:
    """A terminal set of at least two vertices of d, as a frozenset of
    ints.  Raises ValueError otherwise."""
    terminals = frozenset(checked_vertices(d.vertex_count, members))
    if len(terminals) < 2:
        raise ValueError("a terminal set needs at least two vertices")
    return terminals


def _checked_pairs(vertex_count, pairs, what: str) -> tuple:
    """(n, checked): the vertex count and the pairs as plain ints, checked
    in one pass; see `build_digraph`.  A pair that is already a tuple of
    two plain ints is kept as it is, so digraphs built from the same arcs
    share them; any other pair is rebuilt as one."""
    n = checked_int(vertex_count, "vertex count", 0, sys.maxsize)
    checked = []
    for pair in pairs:
        u, v = pair
        if type(u) is not int or type(v) is not int:
            pair = checked_vertices(n, pair, f"{what} endpoint")
            u, v = pair
        elif type(pair) is not tuple:
            pair = (u, v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{what} ({u}, {v}) has an endpoint outside "
                             f"0..{n - 1}")
        if u == v:
            raise ValueError(f"loop {what} ({u}, {v}) is not allowed")
        checked.append(pair)
    return n, checked


def build_digraph(vertex_count: int, arcs) -> MultiDigraph:
    """Validate and build a MultiDigraph.

    Raises ValueError for a vertex count or an endpoint that is not an
    integer, a vertex count below 0 or above sys.maxsize (no per-vertex
    list could be built), an endpoint outside 0..n-1, or a loop arc.
    Parallel arcs are kept, in the given order.
    """
    return MultiDigraph(*_checked_pairs(vertex_count, arcs, "arc"))


def build_graph(vertex_count: int, edges) -> Graph:
    """Validate and build an undirected simple Graph (no loops,
    deduplicated), refusing what `build_digraph` refuses."""
    n, checked = _checked_pairs(vertex_count, edges, "edge")
    return Graph(n, ((min(u, v), max(u, v)) for (u, v) in checked))


def underlying_graph(d: MultiDigraph) -> Graph:
    """The undirected simple graph obtained by forgetting arc directions."""
    return Graph(d.vertex_count, set((min(u, v), max(u, v)) for (u, v) in d.arcs))


def min_semi_degree(d: MultiDigraph) -> int:
    """min over all vertices of min(out-degree, in-degree), with multiplicity."""
    *_, out, into = d.support()
    return min(map(min, out, into), default=0)


def is_eulerian(d: MultiDigraph) -> bool:
    """True iff the underlying graph is connected and every vertex is balanced.

    Balanced means in-degree equals out-degree counting multiplicities.
    Isolated vertices count against connectivity; the digraphs on 0 and 1
    vertices are connected.  The search from vertex 0 grows one layer
    mask at a time over the arcs in both directions.
    """
    _, succ, pred, out, into = d.support()
    if out != into:
        return False
    seen = front = 1 if succ else 0
    while front:
        nxt = 0
        for v in bits(front):
            nxt |= succ[v] | pred[v]
        front = nxt & ~seen
        seen |= front
    return seen == (1 << len(succ)) - 1


def is_symmetric(d: MultiDigraph) -> bool:
    """True iff every arc (u, v) has the reverse arc (v, u) present."""
    pairs = set(d.arcs)
    return all((v, u) in pairs for (u, v) in pairs)


def subdivide_arc(d: MultiDigraph, arc) -> MultiDigraph:
    """Replace one instance of `arc` = (u, v) by u -> x -> v with a new vertex x.

    The first instance of the pair (in arc-list order) is removed; x gets id
    d.vertex_count and the two new arcs are appended at the end.  Raises
    ValueError when the pair is absent.  The operation preserves Eulerian-ness
    and planarity; a symmetric digraph generally stops being symmetric.
    """
    u, v = checked_vertices(d.vertex_count, arc, "arc endpoint")
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
# Text formats: every line goes through `read_lines`.  The digraph format is
# `n <vertex_count>` then one `a <tail> <head>` line per arc instance.  File
# order is instance identity, so parse/serialize round-trips bit for bit.
# ---------------------------------------------------------------------------


def read_lines(text: str):
    """Yield (line number, directive, list of integers) for each line of
    `text` that is neither blank nor a comment (first word starting `#`).

    The directive is the first word; every other word must be an integer,
    or ValueError names the line.  Each parser rules on its directives.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split()
        if not words or words[0][0] == "#":
            continue
        directive = words.pop(0)
        try:
            values = [*map(int, words)]
        except ValueError:
            raise ValueError(f"line {lineno}: {directive!r} takes integers, "
                             f"got {' '.join(words)!r}") from None
        yield lineno, directive, values


def parse_digraph(text: str) -> MultiDigraph:
    """Parse the digraph text format.  Raises ValueError on malformed input."""
    vertex_count = None
    arcs = []
    for lineno, directive, values in read_lines(text):
        if directive == "a" and vertex_count is not None and len(values) == 2:
            arcs.append(values)
        elif directive == "n" and len(values) == 1 and vertex_count is None:
            vertex_count = values[0]
        else:
            raise ValueError(f"line {lineno}: expected one 'n <vertex_count>' "
                             "line, then 'a <tail> <head>' lines")
    if vertex_count is None:
        raise ValueError("missing n line")
    return build_digraph(vertex_count, arcs)


def serialize_digraph(d: MultiDigraph) -> str:
    """Emit the digraph text format, arcs in instance order."""
    lines = [f"n {d.vertex_count}"]
    lines.extend(f"a {u} {v}" for (u, v) in d.arcs)
    return "\n".join(lines) + "\n"
