"""Structured digraph families and their Steiner cycle packing numbers.

Three bidirected families are built here with a pinned vertex and arc
order: complete digraphs, complete bipartite digraphs, and balanced
complete multipartite digraphs (l parts of w vertices each).  For these,
the minimum over all k-element terminal sets of the maximum packing size
is known in closed form:

* complete on n vertices: n - 1, except n in {4, 6} where the value drops
  to n - 2 once k >= n - 1 (for n = 4 that is every k > 2; for n = 6
  only k = 5 and k = 6, since five arc-disjoint cycles pass through any
  four of the six vertices);
* bipartite with part sizes t < z: t while k <= t, then 0 (any terminal
  set with more than t vertices on the large side cannot be covered by an
  alternating cycle); equal part sizes fall under the multipartite rule;
* multipartite with l parts of size w: w*(l - 1), except the degenerate
  w = 1 column, which is the complete digraph again.

The exceptional complete cases are witnessed by fixed hand-checked
packings (`small_complete_packing`); everything else is witnessed by a
decomposition of the whole arc set into Hamiltonian cycles, searched for
by `hamiltonian_decomposition`.  Such a decomposition exists for the
complete digraph exactly when n is not 4 or 6 (Tillson, 1980), and for
every balanced multipartite digraph other than those two, so the search
doubles as an exhaustive refuter on the exceptions.  The lack of a
decomposition does not by itself cap the value below n - 1: with few
terminals the n - 1 cycles need not be Hamiltonian, which is why the
6-vertex drop starts at k = 5 and not at k = 4.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .digraph import MultiDigraph, build_digraph
from .packing import cycle_pairs, validate_cycle
from .search import BudgetHit, Nodes

DECOMPOSED = "decomposed"
EXHAUSTED = "exhausted"
BUDGET = "budget"


@dataclass(frozen=True)
class FamilySpec:
    """A named digraph family instance, e.g. complete:6 or multipartite:2x3."""

    kind: str
    params: tuple

    @classmethod
    def complete(cls, n: int) -> "FamilySpec":
        return cls("complete", (int(n),))

    @classmethod
    def bipartite(cls, t: int, z: int) -> "FamilySpec":
        return cls("bipartite", (int(t), int(z)))

    @classmethod
    def multipartite(cls, w: int, l: int) -> "FamilySpec":
        """l parts of w vertices each."""
        return cls("multipartite", (int(w), int(l)))

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        """Parse complete:N, bipartite:T,Z or multipartite:WxL."""
        kind, sep, rest = text.strip().partition(":")
        if not sep:
            raise ValueError(f"family {text!r} lacks a ':' separator")
        try:
            if kind == "complete":
                return cls.complete(int(rest))
            if kind == "bipartite":
                t, z = rest.split(",")
                return cls.bipartite(int(t), int(z))
            if kind == "multipartite":
                w, l = rest.lower().split("x")
                return cls.multipartite(int(w), int(l))
        except ValueError as exc:
            raise ValueError(f"bad family parameters in {text!r}") from exc
        raise ValueError(f"unknown family kind {kind!r}")

    @property
    def vertex_count(self) -> int:
        if self.kind == "complete":
            return self.params[0]
        if self.kind == "bipartite":
            return self.params[0] + self.params[1]
        return self.params[0] * self.params[1]

    @property
    def label(self) -> str:
        if self.kind == "complete":
            return f"complete:{self.params[0]}"
        if self.kind == "bipartite":
            return "bipartite:{},{}".format(*self.params)
        return "multipartite:{}x{}".format(*self.params)


def make_family(spec) -> MultiDigraph:
    """Build the bidirected digraph for a FamilySpec (or its string form).

    Vertices are 0..n-1; bipartite puts the first part on 0..t-1,
    multipartite assigns vertex v to part v // w.  Arcs are emitted with
    ascending tail, then ascending head, so layouts are reproducible.
    """
    if isinstance(spec, str):
        spec = FamilySpec.parse(spec)
    if any(p < 1 for p in spec.params):
        raise ValueError(f"family parameters must be positive: {spec.label}")
    n = spec.vertex_count
    if spec.kind == "complete":
        if n < 2:
            raise ValueError("complete family needs at least 2 vertices")
        part = list(range(n))
    elif spec.kind == "bipartite":
        t, z = spec.params
        if not 2 <= t <= z:
            raise ValueError("bipartite parts must satisfy 2 <= t <= z, "
                             f"got {t},{z}")
        part = [0 if v < t else 1 for v in range(n)]
    elif spec.kind == "multipartite":
        w, l = spec.params
        if l < 2:
            raise ValueError("multipartite family needs at least 2 parts")
        part = [v // w for v in range(n)]
    else:
        raise ValueError(f"unknown family kind {spec.kind!r}")
    arcs = [(u, v) for u in range(n) for v in range(n)
            if u != v and part[u] != part[v]]
    return build_digraph(n, arcs)


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------


def complete_value(n: int, k: int) -> int:
    """Packing number of the bidirected complete digraph on n vertices,
    minimised over k-element terminal sets.

    The semi-degree n - 1 is reached except for n in {4, 6} with
    k >= n - 1, where the value is n - 2.  Every vertex permutation is an
    automorphism, so one terminal set of each size decides the minimum.
    """
    if not 2 <= k <= n:
        raise ValueError(f"k must be between 2 and {n}, got {k}")
    if n in (4, 6) and k >= n - 1:
        return n - 2
    return n - 1


def bipartite_value(t: int, z: int, k: int) -> int:
    """Packing number of the bidirected complete bipartite digraph with
    part sizes 2 <= t <= z.

    Equal part sizes make the digraph regular multipartite, so that case
    is routed through `multipartite_value`.
    """
    if not 2 <= t <= z:
        raise ValueError(f"part sizes must satisfy 2 <= t <= z, got {t},{z}")
    if not 2 <= k <= t + z:
        raise ValueError(f"k must be between 2 and {t + z}, got {k}")
    if t == z:
        return multipartite_value(t, 2, k)
    return t if k <= t else 0


def multipartite_value(w: int, l: int, k: int) -> int:
    """Packing number of the bidirected complete multipartite digraph with
    l parts of size w.

    A single part (l = 1) leaves no arcs at all, hence value 0; this is
    accepted here for arithmetic convenience even though `make_family`
    refuses to build that degenerate digraph.  A part size of 1 makes
    the digraph complete on l vertices, so that column delegates to
    `complete_value` and inherits its small exceptions.
    """
    if w < 1 or l < 1:
        raise ValueError("part size and part count must be positive")
    if not 2 <= k <= w * l:
        raise ValueError(f"k must be between 2 and {w * l}, got {k}")
    if l == 1:
        return 0
    if w == 1:
        return complete_value(l, k)
    return w * (l - 1)


def family_value(spec, k: int) -> int:
    """Closed-form packing number for any family spec."""
    if isinstance(spec, str):
        spec = FamilySpec.parse(spec)
    if spec.kind == "complete":
        return complete_value(spec.params[0], k)
    if spec.kind == "bipartite":
        return bipartite_value(spec.params[0], spec.params[1], k)
    return multipartite_value(spec.params[0], spec.params[1], k)


def lambda_table(spec, ks=None) -> dict:
    """Closed-form values for a range of terminal-set sizes (default: all)."""
    if isinstance(spec, str):
        spec = FamilySpec.parse(spec)
    if ks is None:
        ks = range(2, spec.vertex_count + 1)
    return {k: family_value(spec, k) for k in ks}


# ---------------------------------------------------------------------------
# Hand-checked optimal packings for the exceptional complete digraphs.
# ---------------------------------------------------------------------------

# Keyed by (n, k); cycles are written on role ids, where roles 0..k-1 are
# the terminals in ascending order and roles k..n-1 the remaining vertices.
# Each family was verified arc-disjoint by direct inspection and is
# re-verified by the test suite against the solver.
_SMALL_PACKINGS = {
    (4, 2): ((0, 1, 0), (0, 2, 1, 3, 0), (0, 3, 1, 2, 0)),
    (4, 3): ((0, 1, 2, 0), (0, 2, 1, 0)),
    (4, 4): ((0, 1, 2, 3, 0), (0, 3, 2, 1, 0)),
    (6, 2): ((0, 1, 0), (0, 2, 1, 3, 0), (0, 3, 1, 2, 0),
             (0, 4, 1, 5, 0), (0, 5, 1, 4, 0)),
    (6, 3): ((0, 1, 2, 0), (0, 2, 1, 0), (0, 3, 1, 4, 2, 5, 0),
             (0, 4, 1, 5, 2, 3, 0), (0, 5, 1, 3, 2, 4, 0)),
    (6, 4): ((0, 1, 2, 3, 0), (0, 2, 1, 4, 3, 5, 0), (0, 3, 4, 1, 5, 2, 0),
             (0, 4, 2, 5, 3, 1, 0), (0, 5, 1, 3, 2, 4, 0)),
    (6, 5): ((0, 1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1, 0),
             (0, 2, 5, 3, 1, 4, 0), (0, 4, 1, 3, 5, 2, 0)),
    (6, 6): ((0, 1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1, 0),
             (0, 2, 5, 3, 1, 4, 0), (0, 4, 1, 3, 5, 2, 0)),
}


def small_complete_packing(n: int, terminals) -> tuple:
    """An optimal Steiner cycle packing of the complete digraph for n in
    {4, 6}, for an arbitrary terminal set, as vertex cycle tuples.

    The fixed role packings are relabelled onto the given terminals, which
    is enough because the complete digraph is symmetric under every vertex
    permutation.
    """
    if n not in (4, 6):
        raise ValueError("fixed packings cover only the 4- and 6-vertex "
                         "complete digraphs")
    terminals = frozenset(int(v) for v in terminals)
    if not terminals <= set(range(n)) or len(terminals) < 2:
        raise ValueError("terminals must be at least two vertices in range")
    order = sorted(terminals) + sorted(set(range(n)) - terminals)
    template = _SMALL_PACKINGS[(n, len(terminals))]
    return tuple(tuple(order[role] for role in seq) for seq in template)


# ---------------------------------------------------------------------------
# Hamiltonian decomposition search.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionCertificate:
    """A partition of all arcs of `host` into Hamiltonian cycles."""

    host: MultiDigraph
    cycles: tuple

    def is_valid(self) -> bool:
        usage = Counter()
        for seq in self.cycles:
            try:
                validate_cycle(self.host, seq)
            except ValueError:
                return False
            if len(set(seq[:-1])) != self.host.vertex_count:
                return False
            usage.update(cycle_pairs(seq))
        return usage == self.host.multiplicity


@dataclass(frozen=True)
class DecompositionResult:
    """Search outcome: status is one of DECOMPOSED, EXHAUSTED, BUDGET."""

    status: str
    certificate: DecompositionCertificate | None
    nodes: int


def hamiltonian_decomposition(d: MultiDigraph,
                              node_budget: int | None = None) -> DecompositionResult:
    """Partition all arcs of d into Hamiltonian cycles, or prove none exists.

    The search anchors every cycle at vertex 0: the i-th cycle starts with
    the i-th smallest outgoing arc of 0 (cycles are recovered sorted by
    their first step, so each partition is visited once).  EXHAUSTED means
    the full search space was ruled out; BUDGET means the node budget ran
    out first and nothing is certified.
    """
    n = d.vertex_count
    m = len(d.arcs)
    if m == 0:
        return DecompositionResult(DECOMPOSED, DecompositionCertificate(d, ()), 0)
    if n < 2 or m % n != 0:
        return DecompositionResult(EXHAUSTED, None, 0)
    r = m // n
    for v in range(n):
        if d.out_degree(v) != r or d.in_degree(v) != r:
            return DecompositionResult(EXHAUSTED, None, 0)

    residual = Counter(d.arcs)
    anchor_heads = sorted(h for (t, h) in d.arcs if t == 0)
    cycles = []
    nodes = Nodes(node_budget)

    def extend(path, visited):
        nodes.step()
        v = path[-1]
        if len(path) == n:
            if residual[(v, 0)] > 0:
                residual[(v, 0)] -= 1
                cycles.append(tuple(path) + (0,))
                if build(len(cycles)):
                    return True
                cycles.pop()
                residual[(v, 0)] += 1
            return False
        for w in d.successors(v):
            if w == 0 or w in visited or residual[(v, w)] <= 0:
                continue
            residual[(v, w)] -= 1
            visited.add(w)
            path.append(w)
            if extend(path, visited):
                return True
            path.pop()
            visited.discard(w)
            residual[(v, w)] += 1
        return False

    def build(c):
        if c == r:
            return True
        head = anchor_heads[c]
        if residual[(0, head)] <= 0:
            return False
        residual[(0, head)] -= 1
        if extend([0, head], {head}):
            return True
        residual[(0, head)] += 1
        return False

    try:
        found = build(0)
    except BudgetHit:
        return DecompositionResult(BUDGET, None, nodes.count)
    if found:
        return DecompositionResult(
            DECOMPOSED, DecompositionCertificate(d, tuple(cycles)), nodes.count)
    return DecompositionResult(EXHAUSTED, None, nodes.count)
