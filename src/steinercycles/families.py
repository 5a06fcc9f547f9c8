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
decomposition of the whole arc set into Hamiltonian cycles, found by
`hamiltonian_decomposition`.  Such a decomposition exists for the
complete digraph exactly when n is not 4 or 6 (Tillson, 1980), and for
every balanced multipartite digraph other than those two.  For odd n it
is built directly: the translates of one cycle read off a sequencing of
Z_{n-1} (Gordon, 1961).  Every other r-regular digraph, even complete
ones included, is decided by the packing search with every vertex a
terminal: r arc-disjoint Hamiltonian cycles use every arc, so that search
doubles as an exhaustive refuter on the exceptions.  The lack of a
decomposition does not by itself cap the value below n - 1: with few
terminals the n - 1 cycles need not be Hamiltonian, which is why the
6-vertex drop starts at k = 5 and not at k = 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import MultiDigraph, build_digraph, checked_int, \
    checked_vertices, is_integer
from .packing import CyclePacking, check_budget, packing_exists, \
    verify_packing

DECOMPOSED = "decomposed"
EXHAUSTED = "exhausted"
BUDGET = "budget"


@dataclass(frozen=True)
class FamilySpec:
    """A named digraph family instance, e.g. complete:6 or multipartite:2x3."""

    kind: str
    params: tuple

    def __post_init__(self):
        # complete(6.7) is refused, not read as complete:6; `check` does ranges
        if not all(map(is_integer, self.params)):
            raise ValueError("family parameters must be integers, "
                             f"got {self.params}")
        object.__setattr__(self, "params", tuple(map(int, self.params)))

    @classmethod
    def complete(cls, n: int) -> "FamilySpec":
        return cls("complete", (n,))

    @classmethod
    def bipartite(cls, t: int, z: int) -> "FamilySpec":
        return cls("bipartite", (t, z))

    @classmethod
    def multipartite(cls, w: int, l: int) -> "FamilySpec":
        """l parts of w vertices each."""
        return cls("multipartite", (w, l))

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        """Parse complete:N, bipartite:T,Z or multipartite:WxL.

        The spec must pass `check`, so every parsed spec names a digraph
        that `make_family` builds.
        """
        kind, sep, rest = text.strip().partition(":")
        if not sep:
            raise ValueError(f"family {text!r} lacks a ':' separator")
        if kind not in ("complete", "bipartite", "multipartite"):
            raise ValueError(f"unknown family kind {kind!r}")
        try:
            if kind == "complete":
                spec = cls.complete(int(rest))
            elif kind == "bipartite":
                t, z = rest.split(",")
                spec = cls.bipartite(int(t), int(z))
            else:
                w, l = rest.lower().split("x")
                spec = cls.multipartite(int(w), int(l))
        except ValueError as exc:
            raise ValueError(f"bad family parameters in {text!r}") from exc
        spec.check()
        return spec

    def check(self) -> None:
        """Raise ValueError unless the family is one `make_family` builds.

        A complete family takes one parameter and the others two.  Every
        parameter must be at least 1 and the family must have at least 2
        vertices; a bipartite family needs 2 <= t <= z and a multipartite
        one at least 2 parts.  Anything else has no terminal set whose
        packing number a table could state.
        """
        if self.kind not in ("complete", "bipartite", "multipartite"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if len(self.params) != (1 if self.kind == "complete" else 2):
            raise ValueError(f"wrong parameter count for a {self.kind} "
                             f"family: {self.params}")
        if min(self.params) < 1 or self.vertex_count < 2:
            raise ValueError(f"family {self.label} needs parameters of at "
                             "least 1 and at least 2 vertices")
        if self.kind == "bipartite" and not 2 <= self.params[0] <= self.params[1]:
            raise ValueError("bipartite parts must satisfy 2 <= t <= z, "
                             "got {},{}".format(*self.params))
        if self.kind == "multipartite" and self.params[1] < 2:
            raise ValueError("multipartite family needs at least 2 parts")

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


def _checked(spec) -> FamilySpec:
    """A FamilySpec or its string form, as a spec that passed `check`."""
    if isinstance(spec, str):
        return FamilySpec.parse(spec)
    spec.check()
    return spec


def make_family(spec) -> MultiDigraph:
    """Build the bidirected digraph for a FamilySpec (or its string form).

    Vertices are 0..n-1; bipartite puts the first part on 0..t-1,
    multipartite assigns vertex v to part v // w.  Arcs are emitted with
    ascending tail, then ascending head, so layouts are reproducible.
    """
    spec = _checked(spec)
    n = spec.vertex_count
    if spec.kind == "complete":
        part = list(range(n))
    elif spec.kind == "bipartite":
        part = [0 if v < spec.params[0] else 1 for v in range(n)]
    else:
        part = [v // spec.params[0] for v in range(n)]
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
    n = checked_int(n, "n", 2)
    k = checked_int(k, "k", 2, n)
    if n in (4, 6) and k >= n - 1:
        return n - 2
    return n - 1


def bipartite_value(t: int, z: int, k: int) -> int:
    """Packing number of the bidirected complete bipartite digraph with
    part sizes 2 <= t <= z.

    Equal part sizes make the digraph regular multipartite, so that case
    is routed through `multipartite_value`.
    """
    t = checked_int(t, "part size t", 2)
    z = checked_int(z, "part size z", t)
    k = checked_int(k, "k", 2, t + z)
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
    w = checked_int(w, "part size", 1)
    l = checked_int(l, "part count", 1)
    k = checked_int(k, "k", 2, w * l)
    if l == 1:
        return 0
    if w == 1:
        return complete_value(l, k)
    return w * (l - 1)


def family_value(spec, k: int) -> int:
    """Closed-form packing number for any family spec."""
    spec = _checked(spec)
    if spec.kind == "complete":
        return complete_value(spec.params[0], k)
    if spec.kind == "bipartite":
        return bipartite_value(spec.params[0], spec.params[1], k)
    return multipartite_value(spec.params[0], spec.params[1], k)


def lambda_table(spec, ks=None) -> dict:
    """Closed-form values for a range of terminal-set sizes (default: all)."""
    spec = _checked(spec)
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
    if checked_int(n, "n") not in (4, 6):
        raise ValueError("fixed packings cover only the 4- and 6-vertex "
                         "complete digraphs")
    terminals = frozenset(checked_vertices(n, terminals))
    if len(terminals) < 2:
        raise ValueError("a terminal set needs at least two vertices")
    order = sorted(terminals) + sorted(set(range(n)) - terminals)
    template = _SMALL_PACKINGS[(n, len(terminals))]
    return tuple(tuple(order[role] for role in seq) for seq in template)


# ---------------------------------------------------------------------------
# Hamiltonian decompositions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionCertificate:
    """A partition of all arcs of `host` into Hamiltonian cycles."""

    host: MultiDigraph
    cycles: tuple

    def is_valid(self) -> bool:
        # A valid packing with every vertex a terminal is a family of
        # Hamiltonian cycles within the arc multiplicities; holding as many
        # arcs as the host makes it use each arc instance exactly once.
        host = self.host
        every_vertex = frozenset(range(host.vertex_count))
        return (sum(len(seq) - 1 for seq in self.cycles) == len(host.arcs)
                and verify_packing(CyclePacking(host, every_vertex, self.cycles)))


@dataclass(frozen=True)
class DecompositionResult:
    """Search outcome: status is one of DECOMPOSED, EXHAUSTED, BUDGET."""

    status: str
    certificate: DecompositionCertificate | None
    nodes: int


def _odd_complete_cycles(n: int) -> tuple:
    """The n - 1 Hamiltonian cycles of the complete digraph on odd n.

    a = 0, 1, -1, 2, -2, ..., (n-1)/2 is a sequencing of Z_{n-1}: its
    consecutive differences 1, -2, 3, -4, ... are the n - 2 nonzero
    elements, each once.  With vertex 0 as the point at infinity and
    residue x as vertex x + 1, the cycle (inf, a_1 + g, ..., a_{n-1} + g,
    inf) for each g in Z_{n-1} gives every arc exactly once: inf leaves
    for and is entered from each residue once, and each residue x is left
    once towards x + e for every nonzero difference e.  Cycle g starts
    with the arc (0, g + 1), so the cycles come sorted by first step.
    """
    q = n - 1
    terrace = [(j + 1) // 2 if j % 2 else -(j // 2) for j in range(q)]
    return tuple((0,) + tuple((a + g) % q + 1 for a in terrace) + (0,)
                 for g in range(q))


def hamiltonian_decomposition(d: MultiDigraph,
                              node_budget: int | None = None) -> DecompositionResult:
    """Partition all arcs of d into Hamiltonian cycles, or prove none exists.

    The simple complete digraph on an odd number of vertices is recognised
    in O(m) and decomposed by construction (`_odd_complete_cycles`), with
    0 nodes.  Every other r-regular digraph is decided by the packing
    search with every vertex a terminal: r arc-disjoint Hamiltonian cycles
    hold all n * r arcs, so they exist exactly when the arcs decompose.
    `nodes` is that search's node count.  EXHAUSTED means the search ruled
    the packing out; BUDGET means the node budget ran out first and
    nothing is certified.

    Every decomposition, built or found, is checked with `is_valid`
    before it is returned; a failed check raises RuntimeError, so no
    unverified certificate is returned.
    """
    check_budget(node_budget)
    n = d.vertex_count
    m = len(d.arcs)
    if m == 0:
        return DecompositionResult(DECOMPOSED, DecompositionCertificate(d, ()), 0)
    if n < 2 or m % n != 0:
        return DecompositionResult(EXHAUSTED, None, 0)
    r = m // n
    out, into = d.degrees()
    if any(c != r for c in out + into):
        return DecompositionResult(EXHAUSTED, None, 0)
    # build_digraph refuses loops, so m = n(n - 1) distinct ordered pairs
    # are all of them and d is the simple complete digraph.
    if n % 2 and r == n - 1 and len(set(d.arcs)) == m:
        cycles, nodes = _odd_complete_cycles(n), 0
    else:
        res = packing_exists(d, range(n), r, node_budget)
        if not res.exists:
            return DecompositionResult(EXHAUSTED if res.certified else BUDGET,
                                       None, res.nodes)
        cycles, nodes = res.packing.cycles, res.nodes
    cert = DecompositionCertificate(d, cycles)
    if not cert.is_valid():
        raise RuntimeError("the decomposition of a digraph on "
                           f"{n} vertices failed its check")
    return DecompositionResult(DECOMPOSED, cert, nodes)
