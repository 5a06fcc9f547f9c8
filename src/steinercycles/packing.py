"""Exact packing of arc-disjoint Steiner cycles.

A Steiner cycle for a terminal set S is a simple directed cycle visiting
every vertex of S; the minimal case is a 2-cycle (u, v, u).  Cycles are
plain vertex tuples whose first and last entries coincide, written in
canonical form: rotated so the smallest terminal comes first.  A packing is
arc-disjoint when, for every ordered pair, the number of cycles using that
pair does not exceed its multiplicity in the host.

The solver decides whether t cycles fit, by branch-and-bound over
canonical cycles.  Packings are explored as lexicographically sorted
multisets (repeats are only possible when parallel arcs supply capacity).
The first bound is the terminal degree bound: a Steiner cycle passes every
terminal exactly once, on one outgoing and one incoming arc instance, so
at most min over terminals of min(out-degree, in-degree) cycles fit, and a
larger t is refuted without search.

The cycle enumerator keeps the residual support as successor and
predecessor bitmasks and extends a path from s0, the smallest terminal;
entering a vertex is one search node.  The prune keeps the path entered at
u only if u or a vertex reached from u through vertices off the path has
an arc to s0, every terminal off the path is so reached, and each of them
reaches s0 through vertices off the path.  Two rules make the test cheap
without changing its answer.

1. The forward search tests after each level of its expansion whether the
   vertices reached so far, u included, already have an arc into s0 and
   hold every missing terminal, so on a dense host it usually stops after
   the first level.
2. A forced step passes without a search.  Say the path at u passed, w is
   the only successor of u off the path, no vertex off the path has an arc
   to w, and a terminal t is off the path.  No walk through vertices off
   u's path returns to w, so the vertices w reaches off its own path are
   those u reached, less w, and every missing terminal but w is among
   them.  A path off u's path into s0 from a vertex other than w never
   enters w either, so each missing terminal still reaches s0 off w's
   path.  And t's path into s0 runs through vertices reached from w, so w
   or one of them has an arc to s0.  On a ring every step is forced, and
   the enumeration costs linear time in the ring's length, not quadratic.

The maximum is a ladder of decisions on one reduced instance.  Every
state of a decision's search holds a packing, the cycles taken so far,
and the ladder keeps the deepest one.  It decides first at t = the degree
bound, where a yes is the maximum; after a no, from one above the
deepest packing up to the first no.  A t-packing holds a (t - 1)-packing,
so a no at t proves the value is below t, and the deepest packing is a
maximum; under a node budget it is the lower bound reported.

Each cycle taken lowers every terminal's residual degrees by exactly one,
so the bound itself never prunes inside the search.  Its equality case
does: when t equals a terminal's degree, every arc instance at that
terminal is used, each by a different cycle.  Two exact rules follow.

* Forced first arc, at every node when t equals s0's out-degree.  The
  cycles still to come each leave s0 once, and s0 has exactly as many
  residual out-arcs as there are cycles to come, so a completion reaching
  t uses all of them, the lowest one (s0, w) included.  Its
  lexicographically first cycle starts with (s0, w), since no residual arc
  leaves s0 for a vertex below w.  So the node's enumeration is bounded
  by that arc: the frame of s0 tries w as its only head, and no vertex is
  entered after any other first arc.  The cycles starting (s0, w) come
  first in lexicographic order, and a retaken `last` starts (s0, w) too,
  since its parent's first arc was the lowest then and still has
  capacity.  So the node's candidates are those of the full listing up to
  its first cycle not starting (s0, w), and every candidate up to a
  completion's first cycle starts that way.  Each cycle of a completion
  the node allows is one of its candidates (see the soundness of the
  orbits below), so the bound loses none.
* Forced vertices, once at the root.  A terminal of in-degree t is
  in-tight: each of its t arc instances in is used by a different cycle
  of a t-packing; out-tight is the same for arcs out.  A cycle passes any
  vertex v at most once, so the arc instances from v into in-tight
  terminals, and those into v from out-tight ones, each number at most t,
  or no t-packing exists.  If either count is t, every cycle of a
  t-packing passes v, and the t-packings for S are those for S + v: v
  joins the terminal set (no t-packing exists if its degree is below t)
  and is tight in turn where its degree is t.  The rule runs to a
  fixpoint; degrees are static, so one pass over the capacities and a
  worklist suffice.  The search, and its twin group, then runs on the
  enlarged set, with s0 still the smallest of the caller's terminals so
  witnesses keep their canonical rotation.

The second bound is the arc cut κ, the least maxflow(x→y) over ordered
pairs of terminals on the reduced instance.  Each cycle of a packing holds
an x→y path, and the cycles are arc-disjoint, so by Menger no more than
maxflow(x→y) of them fit.  Local arc-connectivity is transitive,
maxflow(x→z) ≥ min(maxflow(x→y), maxflow(y→z)), so the flows between
consecutive terminals in ascending cyclic order already give κ.  The
terminals are those after the forced vertices above have joined, which
every cycle of a t-packing passes.  Each flow, `digraph.capped_flow`,
starts from the arc-disjoint paths x→y and x→w→y, adds unit augmenting
paths if those fall short, and stops at t; a t above κ is refuted.

The cut is checked in two places.  On the root's reduced instance it is
checked at the search's first backtrack: a decision settled on its first
descent, as many yes-instances are, never pays for its |S| flows.  Below
the root it is checked on the residual: a node whose cycles taken so far
leave `left` still to find is refuted when the residual's κ is below
`left`, since every remaining cycle passes every terminal, forced ones
included, and so holds an x→y path in the residual.  Only subtrees without
a completion are cut, so the witnesses do not change.  A cycle crossing a
least cut twice lowers the residual's κ by two, which the root's check
cannot see.  The residual check runs once per node, at the first backtrack
after the node's subtree has cost |S| times the number of support pairs of
the reduced instance in search nodes, S the caller's terminal set: what
one augmenting search per pair of consecutive terminals of S can scan, so
the check costs about as much as the search it may save, plus one flow
per forced vertex.  Forced vertices lengthen the check but do not delay
it; counting them in the patience too cost the Eulerian corpus 9,153 nodes
against 8,134.  The value comes from the input; there is no option.

The search branches on one cycle per orbit (orbital branching: Ostrowski,
Linderoth, Rossi and Smriglio, Math. Programming 126, 2011).  The group
is the twin group of the reduced instance: the permutations within classes
of twins (vertices whose swap preserves every capacity), split into
terminals and non-terminals, that fix s0, the smallest terminal.  A node's
classes are the root's minus the vertices of the cycles taken so far (the
pointwise stabiliser), so a node's group G fixes every cycle taken so far
and preserves the residual capacities.  Two cycles share an orbit when
relabelling each class's vertices in order of first appearance gives the
same key.  A node walks its candidates in lexicographic order (the cycle
it took again if capacity allows, then greater ones) and branches on the
first cycle of each orbit, r_1, r_2, ...; it skips a cycle in the orbit of
an earlier branch here, or in an orbit forbidden at an ancestor.  Child i
takes r_i and forbids the orbits of r_1, ..., r_{i-1}.  The group prunes
nothing before a node's second candidate, so every node builds its classes
only then, at its first backtrack, from the root's.

Soundness: take any packing the node allows and let i be the least index
whose orbit it meets.  Some g in G maps a cycle of it in that orbit onto
r_i.  G preserves the residual and every forbidden set (each is an orbit
of an ancestor's group, which contains G), so the image is a packing of
the same size that holds r_i, meets no earlier orbit and is allowed at
child i.  The lexicographic lower bound stays sound: a cycle below r_i
that the node allows lies in an orbit whose first member, its
representative, comes before r_i, so child i forbids it.  With a trivial
group and nothing forbidden the search is the plain sorted-multiset one.

The root's enumerator also skips what the group would.  A cycle's orbit
key is its lexicographically least member: s0 is fixed and leads every
cycle, and the j-th member of a class is the least choice left for the
class's j-th vertex to appear.  So the root branches only on keys.  A key
adds each class's members in ascending order, so a path prefix that adds w
while a smaller member of w's class is off the path begins no key, and the
root's enumerator skips it (canonical augmentation: McKay, J. Algorithms
26, 1998; Margot, Math. Programming 94, 2002).  Each frame carries the
mask of vertices it may add, those whose next smaller class-mate is on its
path or that have none, and a child's mask adds the next member of the
vertex it took, so the skip costs no test per candidate.  The skip drops
only prefixes that begin no key, so it is sound from any point of the
enumeration on, and every node it drops the plain enumeration visits.  The
root's enumerator takes the group once it has cost as many nodes as the
instance has support pairs, about what `twin_partition` costs, and then
re-masks every open frame.  If the open path already begins no key, the
first frame whose path begins none, and every frame above it, drops all of
its heads, so only keys follow.  Until then it yields the plain listing;
the root skips each cycle there that is no key, since its key came first.
The group is built then, or at the search's first backtrack if that comes
first, so a search settled on its first descent within that many root
nodes never builds it.  The skip pays most on the families' tables,
whose vertices fall into few twin classes: the sweep's tables take 2,860
nodes with it and 4,066 without.  The two channels of an edge of the
replacement gadget are twins too, but the reduction below suppresses
every channel vertex, so they no longer reach the search (its 200 corpus
decisions take 2,407 nodes, 2,419 without the skip).  Below the root the
enumerators do not skip: the lower bound `last` can exclude an orbit's key
while it admits other members of the orbit.

Before searching, the instance is reduced by three rules on non-terminal
vertices v, each preserving Steiner cycle packings exactly; witnesses are
expanded back to original vertices.

1. A vertex that misses incoming or outgoing arcs lies on no cycle and is
   deleted.
2. A vertex with exactly one arc instance in, (u, v), and one out, (v, w),
   is suppressed onto a merged instance of (u, w) that remembers the
   hidden vertex chain, or just deleted when u = w.  Every cycle through
   v passes u, v, w, so suppression is a bijection on Steiner cycles and
   keeps arc-disjointness.
3. A vertex whose arcs are exactly one original instance each of (u, v),
   (v, w), (w, v) and (v, u), for distinct u and w, is the inner vertex of
   a bidirected path; it is suppressed onto one merged instance each of
   (u, w) and (w, u), each carrying the one-vertex chain v, unless
   S ⊆ {u, w} (the K-terminal series reduction of Satyanarayana and
   Wood, SIAM J. Comput. 14, 1985).  A Steiner cycle through v passes u,
   v, w or w, v, u, since the 2-cycles u, v, u and w, v, w miss a second
   terminal, so the rule is a bijection on Steiner cycles and keeps
   arc-disjointness.  The one cycle it adds is the 2-cycle u, w, u
   through both merged instances, which expands to no cycle; it is a
   Steiner cycle only when S ⊆ {u, w}, the case the rule skips.  The
   four instances must be original: a merged one carries a chain, and v
   would sit on two chains, (u, .., v, w) and (w, v, .., u), that one
   next-pointer cannot both follow.  The two merged instances leave
   together: rule 1 at u or w drops both, and rule 2 reaches u only when
   they are its only arcs, and then it closes a loop and drops both.  So
   a chain of this rule is never extended, and it ends at v whichever
   way it is walked.  On the replacement gadget every channel vertex
   goes, and the search runs on the source graph bidirected, each pair
   once per channel.

The reduction is one worklist pass over the host's capacities, successor
and predecessor masks and degrees, all read from `MultiDigraph.support`;
it keeps them up to date and returns them as the search's instance, with
the degree bound.  A chain is kept as next-pointers: each merged arc
instance records its first hidden vertex, and each hidden vertex the one
after it, so a suppression costs O(1) however long the chains it joins
are.  A step of rule 1 or 2 removes at least one arc instance and pushes
back only the endpoints of the arcs it removed.  A step of rule 3 removes
four arc instances, adds two and pushes back nothing: u and w keep their
degrees and gain merged instances only, so no rule newly applies to them.
So the pass takes O(n + m) steps.

The minimum over k-sets, `min_packing_number`, solves one terminal set
per orbit of the twin group, in colex order.  A Hamiltonian cycle passes
every vertex, so it is a Steiner cycle for every terminal set: if d packs
m arc-disjoint Hamiltonian cycles, every k-set packs m.  The complete and
the regular complete multipartite digraphs decompose into Hamiltonian
cycles, with few exceptions (Tillson, J. Combin. Theory B 29, 1980; Ng,
Discrete Math. 177, 1997).  So once a second set is due and the running
minimum m, at least 1, is at most the least semi-degree δ (the degree
bound when every vertex is a terminal), the scan decides m with every
vertex a terminal, once.  A yes ends the scan: no set can fall below m, and the
earliest set holding m is the one the scan already keeps.  A no lets the
scan go on; each k pays for that decision at most once.  While m is above
δ the scan goes on as well, and decides at the first m that is not.

All solver entry points take an optional node budget, None (no limit) or
a nonnegative integer, and reject any other value with `check_budget`
before they do any work.  Every search counts its nodes on one `Nodes`
counter and raises `BudgetHit` at the first node past the budget.
Results say whether they are certified (search ran to completion or hit
a bound) or were cut short.  Terminals, sizes, k, caps and budgets that are not integers raise
ValueError (the checks of `digraph`), and the witness text format is read
by `digraph.read_lines`, with the digraph format's line rules.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .digraph import MultiDigraph, bits, capped_flow, checked_int, \
    is_integer, is_symmetric, min_semi_degree, read_lines, twin_partition, \
    validate_terminals


class BudgetHit(Exception):
    pass


class Nodes:
    """Search-node counter; `limit` is the budget, inf for none."""

    __slots__ = ("count", "limit")

    def __init__(self, limit):
        self.count = 0
        self.limit = float("inf") if limit is None else limit


def check_budget(node_budget) -> None:
    """Raise ValueError unless node_budget is None or a nonnegative integer."""
    if node_budget is not None:
        checked_int(node_budget, "node budget")


@dataclass(frozen=True)
class CyclePacking:
    """A family of Steiner cycles in `host` for `terminals`."""

    host: MultiDigraph
    terminals: frozenset
    cycles: tuple

    def __len__(self):
        return len(self.cycles)


@dataclass(frozen=True)
class PackingResult:
    """Outcome of a maximum-packing search."""

    value: int
    packing: CyclePacking
    certified: bool
    nodes: int


@dataclass(frozen=True)
class ExistenceResult:
    """Outcome of a packing-of-given-size decision."""

    exists: bool
    certified: bool
    packing: CyclePacking | None
    nodes: int


@dataclass(frozen=True)
class MinPackingResult:
    """Minimum packing value over terminal sets of a fixed size."""

    value: int
    witness_set: frozenset
    witness: CyclePacking
    certified: bool
    nodes: int


def cycle_pairs(seq) -> list:
    """Consecutive ordered pairs of a cycle sequence."""
    return [(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]


def canonical_cycle(seq, terminals=None) -> tuple:
    """Rotate a cycle sequence so the smallest terminal (or vertex) is first."""
    body = tuple(seq[:-1]) if seq[0] == seq[-1] else tuple(seq)
    anchor_pool = set(body) & set(terminals) if terminals else set(body)
    if not anchor_pool:
        raise ValueError("the cycle passes no terminal")
    anchor = min(anchor_pool)
    i = body.index(anchor)
    rotated = body[i:] + body[:i]
    return rotated + (rotated[0],)


def validate_cycle(d: MultiDigraph, seq) -> None:
    """Raise ValueError unless seq is a simple directed cycle of d."""
    _check_cycle(seq, Counter(d.arcs))


def _check_cycle(seq, mult) -> None:
    # validate_cycle against a multiplicity Counter of the host
    seq = tuple(seq)
    if not all(map(is_integer, seq)):
        raise ValueError(f"cycle vertices must be integers, got {seq}")
    if len(seq) < 3 or seq[0] != seq[-1]:
        raise ValueError("a cycle sequence must close on its first vertex "
                         "and contain at least two arcs")
    body = seq[:-1]
    if len(set(body)) != len(body):
        raise ValueError("cycle revisits a vertex")
    for (u, v) in cycle_pairs(seq):
        if u == v:
            raise ValueError(f"loop step ({u}, {v}) in cycle")
        if mult[(u, v)] <= 0:
            raise ValueError(f"cycle uses missing arc ({u}, {v})")


def verify_packing(packing: CyclePacking) -> bool:
    """Check that a packing is valid: each cycle is a simple directed cycle
    of the host containing every terminal, and across all cycles no ordered
    pair is used more often than its multiplicity."""
    mult = Counter(packing.host.arcs)
    usage = Counter()
    for seq in packing.cycles:
        try:
            _check_cycle(seq, mult)
        except ValueError:
            return False
        if not packing.terminals <= set(seq):
            return False
        usage.update(cycle_pairs(seq))
    return all(usage[p] <= mult[p] for p in usage)


def reverse_cycle(d: MultiDigraph, seq) -> tuple:
    """Reverse a cycle of a symmetric digraph.

    The reversal of a cycle with at least three arcs is arc-disjoint from
    the original; a 2-cycle reverses to itself.  Raises ValueError when d is
    not symmetric or seq is not a cycle of d.
    """
    if not is_symmetric(d):
        raise ValueError("reverse_cycle requires a symmetric digraph")
    validate_cycle(d, seq)
    return tuple(reversed(tuple(seq)))


# ---------------------------------------------------------------------------
# Search internals.
# ---------------------------------------------------------------------------


def _reduce_instance(d: MultiDigraph, terminals):
    """Terminal-preserving reduction; see the module docstring.

    One worklist pass over the record `d.support()`, keeping all of it up
    to date.  A non-terminal of out- or in-degree 0 loses its arcs; one of
    both degrees 1, on (u, v) and (v, w), is suppressed onto a merged arc
    (u, w); one on original instances of (u, v), (v, u), (v, w) and
    (w, v) is suppressed onto merged arcs (u, w) and (w, u) unless S is
    within {u, w}.  Only the endpoints of the arcs a step of the first two
    rules removes are pushed again.

    Returns (instance, chains, bound): the instance (capacity, succ, pred,
    out_deg, in_deg) that `_decide` takes, the chains (firsts, after) and
    the terminal degree bound.  firsts[pair] lists the first suppressed
    vertex of each instance of a pair a suppression merged onto, None for
    an original instance, which come first; after[v] is the vertex after
    the suppressed vertex v on its chain, up to the pair's head, or None
    when v is a bidirected path's inner vertex, its chain's only one.
    """
    capacity, succ, pred, out_deg, in_deg = d.support()
    firsts = {}
    after = {}

    def cut(u, v):
        # drop every instance of (u, v); the first vertex of its first
        # instance's chain, None for an original arc
        c = capacity.pop((u, v))
        succ[u] ^= 1 << v
        pred[v] ^= 1 << u
        out_deg[u] -= c
        in_deg[v] -= c
        return firsts.pop((u, v), (None,))[0]

    work = [v for v in range(d.vertex_count) if v not in terminals]
    while work:
        v = work.pop()
        if not out_deg[v] or not in_deg[v]:
            ends = list(bits(succ[v] | pred[v]))  # one mask is 0
            for x in bits(succ[v]):
                cut(v, x)
            for x in bits(pred[v]):
                cut(x, v)
        elif out_deg[v] == 1 == in_deg[v]:
            u = pred[v].bit_length() - 1
            w = succ[v].bit_length() - 1
            a, b = cut(u, v), cut(v, w)
            if u != w:
                # a suppression closing a loop means no simple Steiner
                # cycle can pass through v at all, so v is just dropped
                after[v] = w if b is None else b
                c = capacity[(u, w)]
                firsts.setdefault((u, w), [None] * c).append(
                    v if a is None else a)
                capacity[(u, w)] = c + 1
                succ[u] |= 1 << w
                pred[w] |= 1 << u
                out_deg[u] += 1
                in_deg[w] += 1
            ends = sorted({u, w})
        elif (out_deg[v] == 2 == in_deg[v] and succ[v] == pred[v]
              and succ[v] & succ[v] - 1):
            # v is a bidirected path's inner vertex between u and w; unless
            # S is within {u, w} or one of its four arc instances is a
            # merged one, it is suppressed onto one merged instance each of
            # (u, w) and (w, u), each carrying the one-vertex chain v.  u
            # and w keep their degrees, so neither is pushed again.
            nb = succ[v]
            u = (nb & -nb).bit_length() - 1
            w = nb.bit_length() - 1
            if (terminals <= {u, w} or (u, v) in firsts or (v, u) in firsts
                    or (v, w) in firsts or (w, v) in firsts):
                continue
            for x, y in ((u, w), (w, u)):
                capacity.pop((x, v))
                capacity.pop((v, x))
                succ[x] = succ[x] ^ 1 << v | 1 << y
                pred[x] = pred[x] ^ 1 << v | 1 << y
                c = capacity.get((x, y), 0)
                firsts.setdefault((x, y), [None] * c).append(v)
                capacity[(x, y)] = c + 1
            succ[v] = pred[v] = out_deg[v] = in_deg[v] = 0
            after[v] = None
            continue
        else:
            continue
        work.extend(x for x in ends if x not in terminals)
    bound = min(min(out_deg[s], in_deg[s]) for s in terminals)
    return (capacity, succ, pred, out_deg, in_deg), (firsts, after), bound


def _enumerate_cycles(s0, term_mask, succ, pred, lower, nodes,
                      group=None, due=0, first=-1):
    """Yield canonical Steiner cycle sequences in lexicographic order.

    `term_mask` is the bitmask of the terminals, s0 the smallest.
    `succ[u]` and `pred[v]` are bitmasks over vertex ids: the heads of the
    usable support arcs leaving u and the tails of those entering v.  Only
    sequences strictly greater than `lower` are produced when it is given,
    and only those whose second vertex is a bit of `first`.  The search
    prunes branches from which the remaining terminals or the closing
    vertex are unreachable, by the rules of the module docstring.

    At the root of a decision, `group` returns the twin partition of the
    root's group (see `_twin_group`).  It is called at the first frame
    pushed or popped once the enumeration has cost `due` nodes.  Until
    then the plain listing's cycles are yielded; from then on only its
    orbit keys, the cycles c with `_orbit_key(c, part) == c`.
    """
    s0_bit = 1 << s0
    into_s0 = pred[s0]
    limit = nodes.limit
    seq = [s0]
    # mates[v] is the bit of the next member of v's class, if any; a frame's
    # `free` mask holds the vertices whose next smaller class-mate is on its
    # path, or that have none.
    mates = [0] * len(succ)
    due += nodes.count

    def prune_ok(v, off):
        # Forward from v through the vertices `off` the path: v or a reached
        # vertex must have an arc back to s0, and every missing terminal
        # must be reached.  Each level is tested before the next expansion.
        need = term_mask & off
        reach = 1 << v
        if not (into_s0 & reach and not need):
            front = succ[v] & off
            while front:
                reach |= front
                if into_s0 & reach and not need & ~reach:
                    break
                nxt = 0
                while front:
                    low = front & -front
                    nxt |= succ[low.bit_length() - 1]
                    front ^= low
                front = nxt & off & ~reach
            else:
                return False
        if not need:
            return True
        # Backward from s0: every missing terminal must reach s0 through
        # vertices off the path.
        front = into_s0 & off
        reach = 0
        while front:
            reach |= front
            if not need & ~reach:
                return True
            nxt = 0
            while front:
                low = front & -front
                nxt |= pred[low.bit_length() - 1]
                front ^= low
            front = nxt & off & ~reach
        return False

    def canonical():
        # The group is in: a prefix adding w while a smaller member of w's
        # class is off the path begins no orbit key, so every open frame
        # drops such heads; the first frame whose path is such a prefix, and
        # every frame above it, drops all of its heads.  `frames[i]` is the
        # frame of seq[i].
        later = 0
        for cls in set(group().values()):
            for a, b in zip(cls, cls[1:]):
                mates[a] = 1 << b
                later |= 1 << b
        free = ~later
        for i, v in enumerate(seq):
            if not free >> v & 1:
                for frame in frames[i:]:
                    frame[0] = 0
                return
            free |= mates[v]
            frames[i][0] &= free
            frames[i][3] = free

    # One frame [heads left, off, lo, free] per path vertex: its heads still
    # to try (s0 and the vertices off the path), the vertices off the path
    # up to it, lower's next entry while the path equals lower's prefix
    # (else None), and its free mask.  Entering a vertex counts one node;
    # its frame is pushed unless the prune fails.
    frames = []
    nodes.count += 1
    if nodes.count > limit:
        raise BudgetHit
    off = ~s0_bit
    if prune_ok(s0, off):
        lo = None if lower is None else lower[1]
        heads = succ[s0] & off & first
        frames.append([heads if lo is None else heads & -1 << lo, off, lo, -1])
    while frames:
        if group and nodes.count >= due:
            canonical()
            group = None
        frame = frames[-1]
        heads, off, lo, free = frame
        while heads:
            low = heads & -heads
            heads ^= low
            w = low.bit_length() - 1
            if w == s0:
                # With an equal prefix the closed sequence is either equal
                # to `lower` or a proper prefix of it, never greater.
                if len(seq) >= 2 and not term_mask & off and w != lo:
                    yield tuple(seq) + (s0,)
                continue
            nodes.count += 1
            if nodes.count > limit:
                raise BudgetHit
            # A forced step (w is the only way on from the path's end and
            # no vertex off the path leads to w) passes whenever the frame
            # did and a terminal is missing; see the module docstring.
            if not (succ[seq[-1]] & off == low and not pred[w] & off
                    and term_mask & off) and not prune_ok(w, off ^ low):
                continue
            seq.append(w)
            i = len(seq)
            lo = lower[i] if w == lo and i < len(lower) else None
            off ^= low
            free |= mates[w]
            frame[0] = heads
            heads = succ[w] & free & (off | s0_bit)
            frames.append([heads if lo is None else heads & -1 << lo,
                           off, lo, free])
            break
        else:
            frames.pop()
            seq.pop()


def enumerate_steiner_cycles(d: MultiDigraph, terminals, cap: int | None = None) -> list:
    """All Steiner cycles of d for the terminal set, canonical, lex order.

    Each cycle appears exactly once as a vertex tuple starting and ending at
    the smallest terminal.  With `cap` given, the listing stops after cap
    cycles (the order never changes, so a capped result is a prefix).
    """
    terminals = validate_terminals(d, terminals)
    if cap is not None:
        cap = checked_int(cap, "cap")
    _, succ, pred, _, _ = d.support()
    out = []
    for seq in _enumerate_cycles(min(terminals), _mask(terminals), succ, pred,
                                 None, Nodes(None)):
        if cap is not None and len(out) >= cap:
            break
        out.append(seq)
    return out


def _mask(vertices) -> int:
    """The bitmask of a set of vertex ids."""
    return sum(1 << v for v in vertices)


def _expand_witness(seqs, chains):
    """Replace merged arcs in reduced cycle sequences by their chains of
    suppressed vertices, (firsts, after) from `_reduce_instance`."""
    firsts, after = chains
    used = Counter()
    out = []
    for seq in seqs:
        orig = [seq[0]]
        for pair in cycle_pairs(seq):
            head = pair[1]
            if pair in firsts:
                v = firsts[pair][used[pair]]
                used[pair] += 1
                while v is not None and v != head:
                    orig.append(v)
                    v = after[v]
            orig.append(head)
        out.append(tuple(orig))
    return tuple(out)


def _twin_group(capacity, succ, pred, terminals, s0) -> dict:
    """The twin group of the reduced instance, as a partition.

    Maps each vertex of a class of at least two members to its class (an
    ascending tuple).  The classes are the twin classes of the reduced
    instance (`twin_partition`) split into terminals and non-terminals,
    with s0 fixed and the vertices the reduction removed left out; every
    permutation within each class preserves the capacities, the terminal
    set and s0.
    """
    part = {}
    for cls in twin_partition(capacity, succ, pred):
        if len(cls) > 1 and succ[cls[0]]:
            for side in ([v for v in cls if v in terminals and v != s0],
                         [v for v in cls if v not in terminals]):
                if len(side) > 1:
                    side = tuple(side)
                    for v in side:
                        part[v] = side
    return part


def _orbit_key(seq, part) -> tuple:
    """The canonical member of seq's orbit under the partition's group.

    The j-th vertex of a class to appear in seq is replaced by the j-th
    member of the class, so two cycles share a key exactly when a
    permutation within the classes maps one onto the other.
    """
    seen = {}
    key = []
    for v in seq:
        cls = part.get(v)
        if cls is None:
            key.append(v)
        else:
            j = seen.get(cls[0], 0)
            seen[cls[0]] = j + 1
            key.append(cls[j])
    return tuple(key)


def _stabiliser(part, cycles) -> dict:
    """The partition of the subgroup fixing every vertex of the cycles."""
    fixed = set(chain.from_iterable(cycles))
    if fixed.isdisjoint(part):
        return part
    out = {}
    for cls in set(part.values()):
        rest = tuple(v for v in cls if v not in fixed)
        if len(rest) > 1:
            for v in rest:
                out[v] = rest
    return out


def _forced_terminals(capacity, succ, pred, out_deg, in_deg, terminals, t):
    """The terminal set enlarged by every vertex that all t-packings pass,
    or None when no t-packing exists; see the module docstring.

    A terminal of in-degree t (out-degree t) is in-tight (out-tight).
    f_out[v] counts the arc instances from v into in-tight terminals and
    f_in[v] those into v from out-tight ones; the neighbours of a tight
    terminal are read off the reduced instance's masks, and a vertex is
    judged whenever one of its counts reaches t.
    """
    forced = set(terminals)
    work = list(terminals)
    f_out = [0] * len(succ)
    f_in = [0] * len(succ)
    while work:
        s = work.pop()
        for into, counts, mask, deg in ((True, f_out, pred[s], in_deg[s]),
                                        (False, f_in, succ[s], out_deg[s])):
            if deg != t:
                continue
            while mask:
                low = mask & -mask
                mask ^= low
                u = low.bit_length() - 1
                f = counts[u] + capacity[(u, s) if into else (s, u)]
                counts[u] = f
                if f < t:
                    continue
                if f > t:
                    return None
                if u not in forced:
                    if min(out_deg[u], in_deg[u]) < t:
                        return None
                    forced.add(u)
                    work.append(u)
    return frozenset(forced)


def _cut_bound(capacity, succ, pred, terminals, goal) -> int:
    """min(goal, κ), where κ is the least maxflow(x→y) over ordered pairs
    of terminals; see the module docstring.

    By transitivity the pairs of consecutive terminals in ascending cyclic
    order suffice, and each flow stops at the least value found so far.
    """
    order = sorted(terminals)
    for x, y in zip(order, order[1:] + order[:1]):
        goal = capped_flow(capacity, succ, pred, x, y, goal)
    return goal


def _cut_patience(terminals, capacity) -> int:
    """The nodes a subtree costs before its residual cut is checked: |S|
    times the support pairs, S the caller's terminals before any forced
    vertex joins, what one augmenting search per consecutive pair of them
    can scan; see the module docstring."""
    return len(terminals) * len(capacity)


def _decide(instance, terminals, target, nodes, deepest):
    """`target` arc-disjoint Steiner cycles of a reduced instance, as
    reduced sequences, or None when none exist; 1 <= target <= the degree
    bound.  The residual starts from copies of the instance's masks and
    capacities, and BudgetHit from `nodes` propagates.  The cycles taken
    at a node are a packing; they overwrite the caller's list `deepest`
    whenever they outnumber it."""
    capacity, succ, pred, out_deg, _ = instance
    s0 = min(terminals)
    patience = _cut_patience(terminals, capacity)
    terminals = _forced_terminals(*instance, terminals, target)
    if terminals is None:
        return None
    term_mask = _mask(terminals)
    # the group and the root's cut read `instance`; `succ` and `pred`
    # follow the residual
    succ, pred = list(succ), list(pred)
    residual = dict(capacity)
    cur = []
    taken = []  # the arc pairs of each cycle in cur
    group = None
    root_cut = True  # the cut on the root's reduced instance is unchecked
    tight = out_deg[s0] == target  # the forced first arc applies

    def root_group():
        nonlocal group
        if group is None:
            group = _twin_group(*instance[:3], terminals, s0)
        return group

    def take(pairs):
        for (u, v) in pairs:
            residual[(u, v)] -= 1
            if not residual[(u, v)]:
                succ[u] &= ~(1 << v)
                pred[v] &= ~(1 << u)

    def untake(pairs):
        for (u, v) in pairs:
            if not residual[(u, v)]:
                succ[u] |= 1 << v
                pred[v] |= 1 << u
            residual[(u, v)] += 1

    def enter(last, pairs):
        # The frame [candidates, cut_at, part] of a node that took `last`,
        # whose arc pairs are `pairs`.  Below the root, the residual cut
        # is checked at the first backtrack once the node count reaches
        # cut_at, the count before the node plus `patience`; cut_at is
        # None at the root and once the cut is checked.  `part` is the
        # twin partition of the node's group, None until its first
        # backtrack.  The root's own enumeration gets the group after as
        # many nodes as the instance has support pairs, about what
        # `twin_partition` costs.  When `tight`, the enumeration is bounded
        # by the forced first arc, to s0's lowest residual successor.
        cut_at = nodes.count + patience if cur else None
        nodes.count += 1
        if nodes.count > nodes.limit:
            raise BudgetHit
        seqs = _enumerate_cycles(s0, term_mask, succ, pred, last, nodes,
                                 None if last else root_group, len(capacity),
                                 succ[s0] & -succ[s0] if tight else -1)
        if last is not None and all(residual[p] > 0 for p in pairs):
            seqs = chain((last,), seqs)
        return [seqs, cut_at, None]

    # One frame per node; the node at depth i has a child in search while
    # cur holds more than i cycles.  `orbits` holds (partition, orbit keys
    # branched on) for each open node whose group is nontrivial, outermost
    # first, from its first backtrack on: a node skips a candidate in any
    # of those orbits, its own last.  A node's entry leaves with its frame.
    orbits = []

    def leave(part):
        stack.pop()
        if part:
            orbits.pop()

    stack = [enter(None, None)]
    while stack:
        frame = stack[-1]
        seqs, cut_at, part = frame
        if len(cur) == len(stack):
            # back from a child without a completion
            seq = cur.pop()
            untake(taken.pop())
            if cut_at is not None and nodes.count >= cut_at:
                frame[1] = None
                left = target - len(cur)
                if _cut_bound(residual, succ, pred, terminals, left) < left:
                    leave(part)
                    continue
            if part is None:
                # A group prunes nothing before a node's second candidate,
                # so a node builds its partition here, at its first
                # backtrack: the root's, stabilised by every cycle taken
                # so far.  A search settled on its first descent never
                # builds one.  The search's first backtrack also checks
                # the cut on the root's reduced instance.
                if root_cut:
                    root_cut = False
                    if _cut_bound(*instance[:3], terminals, target) < target:
                        return None
                part = frame[2] = _stabiliser(root_group(), cur)
                if part:
                    orbits.append((part, set()))
            if part:
                orbits[-1][1].add(_orbit_key(seq, part))
        for seq in seqs:
            if orbits and any(_orbit_key(seq, p) in keys
                              for p, keys in orbits):
                continue
            pairs = cycle_pairs(seq)
            take(pairs)
            cur.append(seq)
            taken.append(pairs)
            if len(cur) > len(deepest):
                deepest[:] = cur
            stack.append(enter(seq, pairs))
            if len(cur) == target:
                return cur
            break
        else:
            leave(part)
    return None


def _ladder(d: MultiDigraph, terminals, nodes, beat=None):
    """(packing, certified) for a validated terminal set: the ladder of
    decisions in the module docstring, counting on `nodes`.  When the
    budget runs out the packing is the deepest any rung held, and
    certified is False.

    With `beat` given and below the degree bound, one decision at beat
    comes first.  A yes returns None, since the set's value is at least
    beat; after a no the ladder runs in full, from the degree bound."""
    instance, chains, bound = _reduce_instance(d, terminals)
    deepest = []
    certified = True
    try:
        if beat is not None and beat < bound:
            if _decide(instance, terminals, beat, nodes, deepest):
                return None
            deepest = []
        if bound and not _decide(instance, terminals, bound, nodes, deepest):
            for t in range(len(deepest) + 1, bound):
                if not _decide(instance, terminals, t, nodes, deepest):
                    break
    except BudgetHit:
        certified = False
    packing = CyclePacking(d, terminals, _expand_witness(deepest, chains))
    return packing, certified


def _decision(d: MultiDigraph, terminals, size, nodes):
    """`size` arc-disjoint Steiner cycles of d for a validated terminal set,
    as a CyclePacking, or None when none exist: one decision on the reduced
    instance, counting on `nodes`.  BudgetHit propagates."""
    instance, chains, bound = _reduce_instance(d, terminals)
    seqs = (_decide(instance, terminals, size, nodes, [])
            if size <= bound else None)
    if seqs is None:
        return None
    return CyclePacking(d, terminals, _expand_witness(seqs, chains))


def max_cycle_packing(d: MultiDigraph, terminals,
                      node_budget: int | None = None) -> PackingResult:
    """Maximum number of pairwise arc-disjoint Steiner cycles, with witness.

    The ladder of decisions in the module docstring, on one node counter
    for the call.  The result is certified unless the node budget ran out
    first; then `value` is the most cycles any decision held, a lower
    bound with its witness.
    """
    check_budget(node_budget)
    terminals = validate_terminals(d, terminals)
    nodes = Nodes(node_budget)
    packing, certified = _ladder(d, terminals, nodes)
    return PackingResult(len(packing), packing, certified, nodes.count)


def packing_exists(d: MultiDigraph, terminals, size: int,
                   node_budget: int | None = None) -> ExistenceResult:
    """Decide whether `size` pairwise arc-disjoint Steiner cycles exist.

    A positive answer always carries a witness packing and is certified; a
    negative answer is certified only when the search exhausted (rather than
    hitting the node budget).
    """
    check_budget(node_budget)
    size = checked_int(size, "size", 1)
    terminals = validate_terminals(d, terminals)
    nodes = Nodes(node_budget)
    try:
        packing = _decision(d, terminals, size, nodes)
    except BudgetHit:
        return ExistenceResult(False, False, None, nodes.count)
    return ExistenceResult(packing is not None, True, packing, nodes.count)


def _colex_subsets(n: int, k: int):
    """Yield the k-subsets of range(n) as ascending tuples in colex order."""
    c = list(range(k))
    while True:
        yield tuple(c)
        i = 0
        while i + 1 < k and c[i] + 1 == c[i + 1]:
            i += 1
        if c[i] + 1 == n:
            return
        c[i] += 1
        c[:i] = range(i)


def _orbit_representatives(d: MultiDigraph, k: int):
    """Yield, in colex order, the k-subsets that meet every twin class of d
    in a prefix of that class.

    {0, .., k-1} comes first and is always one; the twin classes are built
    only when the caller asks for a second subset.
    """
    subsets = _colex_subsets(d.vertex_count, k)
    yield next(subsets)
    prev = None
    for subset in subsets:
        if prev is None:
            prev = {c[i]: c[i - 1]
                    for c in twin_partition(*d.support()[:3])
                    for i in range(1, len(c))}
        if all(v not in prev or prev[v] in subset for v in subset):
            yield subset


def min_packing_number(d: MultiDigraph, k: int,
                       node_budget: int | None = None) -> MinPackingResult:
    """Minimum over all k-element terminal sets of the maximum packing size.

    Terminal sets are scanned in colexicographic order with an early exit
    once a certified zero appears (no smaller value is possible), and only
    one set per orbit is solved.  The orbits are those of the group
    generated by the transpositions of twins (`twin_partition`):
    each such transposition is checked to map the arc multiset onto
    itself, so every set in an orbit has the same packing value.  The set
    solved for an orbit is the one that meets every twin class in a prefix
    of it (its smallest members), which is the colex-first set of the
    orbit.  The colex-first set attaining the minimum is therefore always
    solved, and without a node budget `value`, `witness_set`, `witness` and
    `certified` are those of the scan over every k-subset; only `nodes`
    differs.  A set after the first can only lower the minimum so far,
    m, if its value is below m, so it is decided at m first and skipped on
    a yes; on a no its ladder runs in full.  A tie keeps the earlier set,
    as the scan does.

    Once a set after the first is due and m is at most the least
    semi-degree δ, the scan decides once whether m arc-disjoint
    Hamiltonian cycles exist, with every vertex a terminal.  They are
    Steiner cycles for every k-set, so a yes proves no set is below m and
    ends the scan with the result it holds: the witness is still the
    earliest set holding m.  A no lets the scan go on unchanged, and the
    decision's nodes are the only cost it adds.  While m is above δ the
    scan goes on as well, and the decision waits for the first m that is
    not.  The sets solved and the decision share one node counter; the
    scan stops, uncertified, at the first set or decision the budget cuts
    short, and the packing that set's search held counts towards the
    minimum.
    """
    check_budget(node_budget)
    if d.vertex_count < 2:
        raise ValueError("a terminal set needs at least two vertices")
    k = checked_int(k, "k", 2, d.vertex_count)
    nodes = Nodes(node_budget)
    witness = None
    for i, subset in enumerate(_orbit_representatives(d, k)):
        beat = None if witness is None else len(witness)
        if i == 1:
            delta = min_semi_degree(d)
        if i and beat <= delta:
            delta = 0  # decided once: the running minimum stays above 0
            try:
                if _decision(d, frozenset(range(d.vertex_count)), beat,
                             nodes):
                    break
            except BudgetHit:
                certified = False
                break
        found = _ladder(d, frozenset(subset), nodes, beat)
        if found is None:
            continue
        packing, certified = found
        if witness is None or len(packing) < len(witness):
            witness = packing
        if not certified or not packing:
            break
    return MinPackingResult(len(witness), witness.terminals, witness,
                            certified, nodes.count)


# ---------------------------------------------------------------------------
# Witness text format, read by `read_lines`: `lambda <value>` then
# `cycle: v0 v1 ... v0` per cycle.
# ---------------------------------------------------------------------------


def serialize_witness(value: int, cycles) -> str:
    lines = [f"lambda {value}"]
    for seq in cycles:
        lines.append("cycle: " + " ".join(str(v) for v in seq))
    return "\n".join(lines) + "\n"


def parse_witness(text: str):
    """Parse the witness format.  Returns (value, cycles).  ValueError on
    malformed input."""
    value = None
    cycles = []
    for lineno, directive, values in read_lines(text):
        if directive == "cycle:" and len(values) >= 3:
            cycles.append(tuple(values))
        elif directive == "lambda" and len(values) == 1 and value is None:
            value = values[0]
        else:
            raise ValueError(f"line {lineno}: unknown witness line; expected "
                             "one 'lambda <value>' line and 'cycle: <v0> ... "
                             "<v0>' lines of at least three vertices")
    if value is None:
        raise ValueError("missing lambda line")
    return value, tuple(cycles)
