"""Structural invariants checked on randomized inputs."""

import random
from collections import Counter
from itertools import combinations, combinations_with_replacement, \
    permutations, product
from unittest.mock import patch

import networkx as nx
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import multiset_max_packing
from steinercycles import packing
from steinercycles.digraph import capped_flow, twin_partition
from steinercycles.packing import Nodes, _cut_bound, _enumerate_cycles, \
    _expand_witness, _mask, _orbit_key, _reduce_instance, _twin_group
from steinercycles import (
    build_digraph,
    canonical_cycle,
    enumerate_steiner_cycles,
    hamiltonian_decomposition,
    make_family,
    max_cycle_packing,
    min_packing_number,
    min_semi_degree,
    packing_exists,
    parse_digraph,
    parse_witness,
    reverse_cycle,
    serialize_digraph,
    serialize_witness,
    subdivide_arc,
    validate_cycle,
    verify_packing,
)


def _random_digraph(rng, lo=3, hi=5, p=0.45):
    n = rng.randint(lo, hi)
    arcs = [(u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() < p]
    return build_digraph(n, arcs)


def _random_symmetric(rng, lo=3, hi=6, p=0.5):
    n = rng.randint(lo, hi)
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                arcs.extend([(u, v), (v, u)])
    return build_digraph(n, arcs)


@given(st.lists(st.integers(0, 20), min_size=2, max_size=8, unique=True),
       st.integers(0, 7))
def test_canonical_cycle_rotation_invariant(body, shift):
    shift %= len(body)
    rotated = body[shift:] + body[:shift]
    assert canonical_cycle(tuple(body)) == canonical_cycle(tuple(rotated))
    closed = tuple(rotated) + (rotated[0],)
    assert canonical_cycle(closed) == canonical_cycle(tuple(body))


@given(st.integers(0, 2 ** 30))
def test_digraph_text_round_trip(seed):
    rng = random.Random(seed)
    d = _random_digraph(rng, lo=2, hi=7, p=0.4)
    assert parse_digraph(serialize_digraph(d)) == d


@given(st.integers(0, 5),
       st.lists(st.lists(st.integers(0, 9), min_size=3, max_size=6),
                max_size=4))
def test_witness_text_round_trip(value, bodies):
    cycles = tuple(tuple(b) + (b[0],) for b in bodies)
    got_value, got_cycles = parse_witness(serialize_witness(value, cycles))
    assert got_value == value and got_cycles == cycles


@given(st.integers(0, 2 ** 30))
def test_packing_value_bounded_by_terminal_degrees(seed):
    rng = random.Random(seed)
    d = _random_digraph(rng, lo=3, hi=5, p=0.55)
    k = rng.randint(2, min(3, d.vertex_count))
    terms = frozenset(rng.sample(range(d.vertex_count), k))
    res = max_cycle_packing(d, terms)
    *_, out, into = d.support()
    bound = min(min(out[v], into[v]) for v in terms)
    assert res.value <= bound
    assert verify_packing(res.packing)


@given(st.integers(0, 2 ** 30))
def test_packing_value_monotone_under_more_terminals(seed):
    rng = random.Random(seed)
    d = _random_digraph(rng, lo=3, hi=5, p=0.55)
    n = d.vertex_count
    terms = set(rng.sample(range(n), 2))
    value = max_cycle_packing(d, terms).value
    rest = [v for v in range(n) if v not in terms]
    rng.shuffle(rest)
    for v in rest:
        terms.add(v)
        bigger = max_cycle_packing(d, terms).value
        assert bigger <= value
        value = bigger


@given(st.integers(0, 2 ** 30))
def test_packing_invariant_under_subdivision(seed):
    rng = random.Random(seed)
    d = _random_digraph(rng, lo=3, hi=4, p=0.6)
    if not d.arcs:
        return
    terms = frozenset(rng.sample(range(d.vertex_count), 2))
    before = max_cycle_packing(d, terms).value
    d2 = subdivide_arc(d, rng.choice(d.arcs))
    assert max_cycle_packing(d2, terms).value == before


@given(st.integers(0, 2 ** 30))
def test_reverse_cycle_disjoint_in_symmetric(seed):
    rng = random.Random(seed)
    d = _random_symmetric(rng)
    terms = frozenset(rng.sample(range(d.vertex_count), 2))
    res = max_cycle_packing(d, terms)
    for seq in res.packing.cycles:
        rev = reverse_cycle(d, seq)
        validate_cycle(d, rev)
        if len(seq) > 3:
            pairs = set(zip(seq, seq[1:]))
            assert pairs.isdisjoint(set(zip(rev, rev[1:])))
        else:
            assert rev == seq


@given(st.integers(0, 2 ** 30))
def test_packing_never_decreases_with_more_arcs(seed):
    rng = random.Random(seed)
    d = _random_digraph(rng, lo=3, hi=4, p=0.4)
    n = d.vertex_count
    terms = frozenset(rng.sample(range(n), 2))
    before = max_cycle_packing(d, terms).value
    extra = (rng.randrange(n), rng.randrange(n))
    if extra[0] == extra[1]:
        return
    d2 = build_digraph(n, list(d.arcs) + [extra])
    assert max_cycle_packing(d2, terms).value >= before


@st.composite
def _twinned_multidigraphs(draw):
    """Multidigraphs on at most six vertices with parallel arcs and many
    twins: each vertex gets one of three types, a type-to-type table gives
    each arc's multiplicity, and a few arc instances are then added."""
    n = draw(st.integers(2, 6))
    types = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    table = draw(st.lists(st.integers(0, 2), min_size=9, max_size=9))
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v
            for _ in range(table[3 * types[u] + types[v]])]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=3))
    arcs += [(u, v) for (u, v) in extra if u != v]
    # Dense six-vertex hosts take seconds per terminal set to refute.
    assume(len(arcs) <= 20)
    return build_digraph(n, arcs)


def _swap_preserves_arcs(d, r, v):
    def image(x):
        return v if x == r else r if x == v else x
    return Counter((image(a), image(b)) for (a, b) in d.arcs) == Counter(d.arcs)


@pytest.mark.deep
@given(_twinned_multidigraphs())
def test_twin_classes_are_exactly_the_swappable_pairs(d):
    classes = twin_partition(*d.support()[:3])
    assert sorted(v for c in classes for v in c) == list(range(d.vertex_count))
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)
    cls = {v: c for c in classes for v in c}
    for r, v in combinations(range(d.vertex_count), 2):
        assert _swap_preserves_arcs(d, r, v) == (cls[r] is cls[v]), (r, v)


@pytest.mark.deep
@given(_twinned_multidigraphs(), st.booleans(), st.data())
def test_twin_group_is_every_swap_within_a_side(d, simple, data):
    # The group of a decision's root: on the reduced instance, two vertices
    # share a class exactly when both have arcs, neither is s0, both or
    # neither are terminals, and swapping them preserves every capacity.
    # Simple hosts take the path that reads the classes off the mask
    # buckets, though a suppression can still merge parallel arcs.
    if simple:
        d = build_digraph(d.vertex_count, sorted(set(d.arcs)))
    terminals = frozenset(data.draw(st.sets(
        st.integers(0, d.vertex_count - 1), min_size=2)))
    (capacity, succ, pred, _, _), _, _ = _reduce_instance(d, terminals)
    s0 = min(terminals)
    part = _twin_group(capacity, succ, pred, terminals, s0)

    def swappable(r, v):
        def image(x):
            return v if x == r else r if x == v else x
        return capacity == {(image(a), image(b)): c
                            for (a, b), c in capacity.items()}

    for r, v in combinations(range(d.vertex_count), 2):
        want = (bool(succ[r] and succ[v]) and s0 not in (r, v)
                and (r in terminals) == (v in terminals) and swappable(r, v))
        assert (r in part and v in part[r]) == want, (r, v)
    assert all(cls == tuple(sorted(cls)) and len(cls) > 1
               for cls in part.values())


@pytest.mark.deep
@given(_twinned_multidigraphs(), st.integers(2, 6))
def test_min_packing_number_matches_scan_of_every_subset(d, k):
    assume(k <= d.vertex_count)
    colex = sorted(combinations(range(d.vertex_count), k),
                   key=lambda s: s[::-1])
    scan = [(s, max_cycle_packing(d, s)) for s in colex]
    value = min(res.value for _, res in scan)
    subset, first = next((s, res) for s, res in scan if res.value == value)
    got = min_packing_number(d, k)
    assert got.value == value
    assert got.witness_set == frozenset(subset)
    assert got.witness.cycles == first.packing.cycles
    assert got.certified == all(res.certified for _, res in scan)
    # The orbit scan solves at most what the full scan does, plus one
    # decision with every vertex a terminal, at the running minimum once it
    # is at most the least semi-degree: the value of the first set there.
    delta = min_semi_degree(d)
    m = next((res.value for _, res in scan if res.value <= delta), 0)
    every = packing_exists(d, range(d.vertex_count), m).nodes if m else 0
    assert got.nodes <= sum(res.nodes for _, res in scan) + every


@st.composite
def _twinned_instances(draw):
    d = draw(_twinned_multidigraphs())
    terminals = draw(st.sets(st.integers(0, d.vertex_count - 1), min_size=2))
    return d, frozenset(terminals)


@pytest.mark.deep
@given(_twinned_instances())
# K5 packs four cycles through four or five terminals.  With four, the
# search finds them only if each child's group fixes the vertices of the
# cycle it took; random hosts of at most 20 arcs almost never show that.
@example((make_family("complete:5"), frozenset(range(4))))
@example((make_family("complete:5"), frozenset(range(5))))
def test_orbital_search_matches_multiset_reference(instance):
    # Twin-rich hosts give the search nontrivial groups to branch over; the
    # reference tries every multiset of the listed cycles, with no symmetry.
    d, terminals = instance
    want = multiset_max_packing(d, enumerate_steiner_cycles(d, terminals))
    res = max_cycle_packing(d, terminals)
    assert (res.value, res.certified) == (want, True)
    assert verify_packing(res.packing) and len(res.packing) == want
    for size in (want, want + 1):
        if size < 1:
            continue
        dec = packing_exists(d, terminals, size)
        assert (dec.exists, dec.certified) == (size <= want, True), size
        if dec.exists:
            assert verify_packing(dec.packing) and len(dec.packing) == size


@pytest.mark.deep
@given(_twinned_instances())
# Targets at the degree bound switch on the forced first arc and, in K5,
# force every non-terminal into the terminal set, vertex 0 below s0 too.
@example((make_family("complete:4"), frozenset(range(4))))
@example((make_family("complete:5"), frozenset({0, 1, 2, 3})))
@example((make_family("complete:5"), frozenset({0, 2, 3, 4})))
@example((make_family("complete:5"), frozenset({1, 2, 3, 4})))
def test_tight_decision_matches_multiset_reference(instance):
    # At a target equal to the terminal degree bound the search uses every
    # arc at a tight terminal: it forces the first arc at s0 and promotes
    # the non-terminals that every cycle must pass.
    d, terminals = instance
    *_, out, into = d.support()
    bound = min(min(out[s], into[s]) for s in terminals)
    assume(bound >= 1)
    want = multiset_max_packing(d, enumerate_steiner_cycles(d, terminals))
    dec = packing_exists(d, terminals, bound)
    assert (dec.exists, dec.certified) == (bound <= want, True)
    if dec.exists:
        assert verify_packing(dec.packing) and len(dec.packing) == bound
        assert {seq[0] for seq in dec.packing.cycles} == {min(terminals)}


def _off_key_prefix(seq, part):
    # The shortest prefix of seq that adds a vertex while a smaller member of
    # its class is off the prefix, so begins no orbit key; None for a key.
    for i, v in enumerate(seq):
        cls = part.get(v, (v,))
        j = cls.index(v)
        if j and cls[j - 1] not in seq[:i]:
            return seq[:i + 1]
    return None


@pytest.mark.deep
@given(_twinned_instances(), st.integers(0, 300))
@example((make_family("complete:5"), frozenset(range(3))), 7)
def test_root_enumerator_yields_exactly_the_orbit_keys(instance, drawn):
    # Wherever the group arrives, at node 0, at node 1, at a drawn node or
    # (past the end of a short listing) never, the root's enumeration
    # yields the plain listing's cycles in order: all of them before the
    # arrival and exactly the orbit keys after it, since the path open at
    # the arrival is dropped from its first vertex that begins no key.  It
    # costs no more nodes than the plain listing.
    d, terminals = instance
    (capacity, succ, pred, _, _), _, _ = _reduce_instance(d, terminals)
    s0 = min(terminals)
    part = _twin_group(capacity, succ, pred, terminals, s0)
    plain = Nodes(None)
    term_mask = _mask(terminals)
    listing = list(_enumerate_cycles(s0, term_mask, succ, pred, None, plain))
    keys = {c for c in listing if _orbit_key(c, part) == c}
    assert keys == {c for c in listing if _off_key_prefix(c, part) is None}
    for due in (0, 1, drawn):
        nodes = Nodes(None)
        got = []
        arrived = []  # how many cycles were yielded when the group arrived

        def group():
            arrived.append(len(got))
            return part

        for seq in _enumerate_cycles(s0, term_mask, succ, pred, None, nodes,
                                     group, due):
            got.append(seq)
        assert len(arrived) <= 1, due
        if due > plain.count:
            assert not arrived, due
        a = arrived[0] if arrived else len(listing)
        assert got[:a] == listing[:a], due
        assert got[a:] == [c for c in listing[a:] if c in keys], due
        assert nodes.count <= plain.count, due


@pytest.mark.deep
@given(_twinned_instances(), st.integers(0, 200))
@example((make_family("complete:5"), frozenset(range(4))), 20)
def test_budgeted_max_is_a_verified_lower_bound(instance, budget):
    # A budget cuts the ladder of decisions short: the value is the most
    # cycles any decision's search held before the cut, with those cycles
    # as its witness.  Up to the cut the budgeted search walks the same
    # tree.
    d, terminals = instance
    exact = max_cycle_packing(d, terminals)
    res = max_cycle_packing(d, terminals, node_budget=budget)
    assert verify_packing(res.packing) and len(res.packing) == res.value
    assert res.value <= exact.value
    assert res.certified == (exact.nodes <= budget)
    if res.certified:
        assert res == exact


@st.composite
def _twinned_sizes(draw):
    d = draw(_twinned_multidigraphs())
    return d, draw(st.integers(2, d.vertex_count))


@pytest.mark.deep
@given(_twinned_sizes(), st.integers(0, 200))
@example((make_family("complete:4"), 2), 0)
def test_budgeted_min_is_a_verified_witness(instance, budget):
    # The sets solved share one node counter, and the scan stops at the
    # first set the budget cuts short.  Wherever it stops, the witness set
    # has k members and its packing verifies.  Up to the cut the budgeted
    # scan walks the same trees as the unbudgeted one.
    d, k = instance
    exact = min_packing_number(d, k)
    res = min_packing_number(d, k, node_budget=budget)
    assert len(res.witness_set) == k
    assert res.witness.terminals == res.witness_set
    assert verify_packing(res.witness) and len(res.witness) == res.value
    assert res.nodes <= budget + 1
    assert res.certified == (exact.nodes <= budget)
    if res.certified:
        assert res == exact


@st.composite
def _flow_instances(draw):
    """Multidigraphs on at most seven vertices, parallel and antiparallel
    arcs common, with a terminal set and a goal."""
    n = draw(st.integers(2, 7))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=16))
    d = build_digraph(n, [(u, v) for (u, v) in pairs if u != v])
    terminals = draw(st.sets(st.integers(0, n - 1), min_size=2))
    return d, frozenset(terminals), draw(st.integers(0, 8))


@pytest.mark.deep
@given(_flow_instances())
# The shortest path 0-1-3-5 blocks 0-2-3, so the second unit of flow must
# cancel the flow on 1->3; no arc leaves 5, so only the wrap-around pair
# (5, 0) shows that the cut is 0.
@example((build_digraph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 5), (1, 4),
                            (4, 5)]), frozenset({0, 5}), 3))
# Two parallel arcs 0->1 but one 1->2: a single path of two arcs.
@example((build_digraph(3, [(0, 1), (0, 1), (1, 2)]), frozenset({0, 2}), 2))
# The symmetric oracle's vertex split of K3 with terminals 0 and 2: x
# becomes 2x -> 2x + 1, that arc doubled for a terminal, and an edge a-b
# the arcs 2a + 1 -> 2b and 2b + 1 -> 2a.
@example((build_digraph(6, [(0, 1), (0, 1), (2, 3), (4, 5), (4, 5),
                            (1, 2), (3, 0), (3, 4), (5, 2), (1, 4), (5, 0)]),
          frozenset({1, 4}), 2))
def test_cut_flow_matches_networkx(instance):
    # The solver's flow, uncapped and stopped at the goal, and the cut bound
    # over consecutive terminals against networkx's flows between every
    # ordered pair of terminals.
    d, terminals, goal = instance
    capacity, succ, pred, _, _ = d.support()
    g = nx.DiGraph()
    g.add_nodes_from(range(d.vertex_count))
    g.add_edges_from((u, v, {"capacity": c}) for (u, v), c in capacity.items())
    flows = {(x, y): nx.maximum_flow_value(g, x, y)
             for x in terminals for y in terminals if x != y}
    for (x, y), f in flows.items():
        assert capped_flow(capacity, succ, pred, x, y, len(d.arcs) + 1) == f
        assert capped_flow(capacity, succ, pred, x, y, goal) == min(goal, f)
    assert _cut_bound(capacity, succ, pred, terminals, goal) == min(
        goal, *flows.values())


def _wiggle_host(*extra):
    """A bottleneck host with terminals 0 and 7: a fan 0 -> 1, 2, 3 on one
    side, a complete digraph on 4..7 on the other, three arcs across each
    way into 4, 5, 6 and back to 0, and the arcs 4 -> 2 and 5 -> 3 back
    across, so a cycle can cross more than once each way.  The flow from 0
    to 7 is 3, but a cycle 0 1 4 2 5 .. leaves at most one arc across from
    0's side.  `extra` arcs are added as given."""
    fan = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 2), (5, 3),
           (4, 0), (5, 0), (6, 0)]
    blob = [(u, v) for u in range(4, 8) for v in range(4, 8) if u != v]
    return build_digraph(8, fan + blob + list(extra)), frozenset({0, 7})


@st.composite
def _bottleneck_instances(draw):
    """Two dense blobs of two or three vertices, each arc doubled or
    dropped at random, joined by one to three arcs each way, with
    terminals on both sides.  A node that needs one more cycle takes the
    first it finds, so the residual cut can refute a node below a root
    whose own cut passes only where the cut is 3 or more."""
    a = draw(st.integers(2, 3))
    n = a + draw(st.integers(2, 3))
    sides = (range(a), range(a, n))
    arcs = [(u, v) for side in sides for u in side for v in side if u != v
            for _ in range(draw(st.integers(0, 2)))]
    for tails, heads in (sides, sides[::-1]):
        for _ in range(draw(st.integers(1, 3))):
            arcs.append((draw(st.sampled_from(tails)),
                         draw(st.sampled_from(heads))))
    terminals = set()
    for side in sides:
        terminals |= draw(st.sets(st.sampled_from(side), min_size=1))
    return build_digraph(n, arcs), frozenset(terminals)


@pytest.mark.deep
@given(_bottleneck_instances())
# At three cycles a first cycle 0 1 4 2 5 .. crosses the cut more than once
# each way, and the residual cut, 1 below the two cycles still needed,
# refutes the nodes below it, while the root's cut is 3.
@example(_wiggle_host((0, 1), (7, 0)))
@example(_wiggle_host((0, 1), (1, 0)))
def test_residual_cut_matches_multiset_reference_on_bottleneck_hosts(instance):
    # Every size up to the degree bound, decided as shipped and with the
    # residual cut checked once per node, at the node's first backtrack:
    # small hosts never cost the search enough nodes to check it
    # otherwise.  Answers and witnesses agree, since only subtrees without
    # a completion are cut.
    d, terminals = instance
    want = multiset_max_packing(d, enumerate_steiner_cycles(d, terminals))
    *_, out, into = d.support()
    bound = min(min(out[s], into[s]) for s in terminals)
    for size in range(1, bound + 1):
        dec = packing_exists(d, terminals, size)
        with patch.object(packing, "_cut_patience", lambda *_: 0):
            eager = packing_exists(d, terminals, size)
        assert (dec.exists, dec.certified) == (size <= want, True), size
        assert (eager.exists, eager.certified, eager.packing) == \
            (dec.exists, True, dec.packing), size
        if dec.exists:
            assert verify_packing(dec.packing) and len(dec.packing) == size


def _class_host(sizes, cliques, joins):
    """A host built from twin classes of the given sizes, on consecutive
    vertices: each class in `cliques` is a complete digraph, and each
    ((i, j), mult) of `joins` adds mult arcs from every member of class i
    to every member of class j."""
    members, n = [], 0
    for size in sizes:
        members.append(range(n, n + size))
        n += size
    arcs = [(u, v) for i in cliques for u in members[i] for v in members[i]
            if u != v]
    for (i, j), mult in joins:
        arcs += [(u, v) for u in members[i] for v in members[j]] * mult
    return build_digraph(n, arcs)


@st.composite
def _twin_class_instances(draw):
    """Hosts from two to five twin classes of one to three vertices, some
    of them cliques, with arcs of multiplicity 1 or 2 joining whole
    classes, two or three terminals, and a size of at most 3 held to the
    degree bound, where a decision is not settled before its search.
    Few draws reach a residual cut at a node whose group is nontrivial;
    the test's example does."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    classes = range(len(sizes))
    cliques = draw(st.sets(st.sampled_from(classes)))
    pairs = [(i, j) for i in classes for j in classes if i != j]
    joins = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 2)),
                          min_size=2, max_size=12, unique_by=lambda j: j[0]))
    d = _class_host(sizes, cliques, joins)
    terminals = draw(st.sets(st.integers(0, d.vertex_count - 1),
                             min_size=2, max_size=3))
    *_, out, into = d.support()
    bound = min(min(out[s], into[s]) for s in terminals)
    return d, frozenset(terminals), max(1, min(bound, draw(st.integers(1, 3))))


@pytest.mark.deep
@given(_twin_class_instances())
# Classes A={0}, B={1,2}, C={3}, D={4,5,6}, E={7}, D a clique: the residual
# cut refutes a node whose group is nontrivial, and the node's orbit entry
# must leave the search with it.  The shipped search answers yes in 690
# nodes, with the witness of the search that never checks the cut.
@example((_class_host((1, 2, 1, 3, 1), (3,), [
    ((0, 1), 1), ((0, 2), 1), ((1, 0), 2), ((1, 3), 1), ((2, 4), 1),
    ((3, 0), 2), ((3, 2), 2), ((3, 4), 1), ((4, 1), 2), ((4, 2), 1),
    ((4, 3), 2)]), frozenset({0, 7}), 3))
def test_residual_cut_keeps_the_witness_on_twin_class_hosts(instance):
    # Decided as shipped and with the residual cut never checked: the cut
    # drops only subtrees without a completion, so the answer and the
    # witness agree whatever the group held at the node it refuted.
    d, terminals, size = instance
    dec = packing_exists(d, terminals, size)
    with patch.object(packing, "_cut_patience", lambda *_: 10**9):
        plain = packing_exists(d, terminals, size)
    assert (dec.exists, dec.certified, dec.packing) == \
        (plain.exists, plain.certified, plain.packing)


@st.composite
def _reducible_instances(draw):
    """Multidigraphs with parallel arcs onto which paths of fresh vertices
    are grafted: chains between two vertices, dead ends (a path leaving a
    vertex or entering it from nowhere) and cycles back to the start,
    2-cycles among them.  A later path may start on an earlier one."""
    n = draw(st.integers(2, 5))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=10))
    arcs = [(u, v) for (u, v) in pairs if u != v]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("chain", "out", "in", "cycle")))
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        fresh = list(range(n, n + draw(st.integers(1, 3))))
        n += len(fresh)
        path = {"chain": [u] + fresh + [v], "out": [u] + fresh,
                "in": fresh + [v], "cycle": [u] + fresh + [u]}[kind]
        arcs += zip(path, path[1:])
    terminals = draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=4))
    return build_digraph(n, arcs), frozenset(terminals)


@pytest.mark.deep
@given(_reducible_instances())
def test_reduction_keeps_exactly_the_steiner_cycles(instance):
    d, terminals = instance
    n = d.vertex_count
    instance, chains, bound = _reduce_instance(d, terminals)
    capacity, succ, pred, out_deg, in_deg = instance
    firsts, _ = chains
    assert all(len(firsts[p]) == capacity[p] for p in firsts)
    assert succ == [sum(1 << v for (u, v) in capacity if u == x)
                    for x in range(n)]
    assert pred == [sum(1 << u for (u, v) in capacity if v == x)
                    for x in range(n)]
    # The degrees the pass keeps are the sums over the capacities, and the
    # bound is their least over the terminals.
    assert out_deg == [sum(c for (u, v), c in capacity.items() if u == x)
                       for x in range(n)]
    assert in_deg == [sum(c for (u, v), c in capacity.items() if v == x)
                      for x in range(n)]
    assert bound == min(min(out_deg[s], in_deg[s]) for s in terminals)
    # (a) At the fixpoint no surviving non-terminal is a dead end or passes
    # a single arc instance through.
    for v in range(n):
        if v not in terminals and (out_deg[v] or in_deg[v]):
            assert out_deg[v] and in_deg[v], v
            assert (out_deg[v], in_deg[v]) != (1, 1), v
    # Each merged arc instance stands for its own path of original arc
    # instances: its expansions together stay within the multiplicities.
    paths = {p: _expand_witness([p] * c, chains) for p, c in capacity.items()}
    used = Counter()
    for pair_paths in paths.values():
        for path in pair_paths:
            used.update(zip(path, path[1:]))
    mult = Counter(d.arcs)
    assert all(used[p] <= mult[p] for p in used)
    # (b) The input's Steiner cycles are the reduced instance's cycles with
    # every merged arc expanded over each of its instances' paths.
    reduced = build_digraph(n, [p for p, c in capacity.items()
                                for _ in range(c)])
    expanded = []
    for seq in enumerate_steiner_cycles(reduced, terminals):
        options = [{path[1:] for path in paths[(u, v)]}
                   for (u, v) in zip(seq, seq[1:])]
        for steps in product(*options):
            expanded.append(seq[:1] + sum(steps, ()))
    assert sorted(expanded) == enumerate_steiner_cycles(d, terminals)


@st.composite
def _regular_multidigraphs(draw):
    # r-regular: the union of r fixed-point-free permutations of n vertices
    n = draw(st.integers(2, 5))
    r = draw(st.integers(1, 3))
    arcs = []
    for _ in range(r):
        perm = draw(st.permutations(range(n)).filter(
            lambda p: all(p[v] != v for v in range(n))))
        arcs += [(v, perm[v]) for v in range(n)]
    return build_digraph(n, draw(st.permutations(arcs))), r


@pytest.mark.deep
@given(_regular_multidigraphs())
@example((make_family("complete:4"), 3))
# decomposes only after backtracking past a closed first cycle
@example((build_digraph(5, [(0, 2), (0, 2), (0, 4), (1, 0), (1, 3), (1, 4),
                            (2, 1), (2, 3), (2, 4), (3, 0), (3, 1), (3, 2),
                            (4, 0), (4, 1), (4, 3)]), 3))
def test_decomposition_matches_brute_force_partition(instance):
    # Brute force: some r Hamiltonian cycles of the support, repeats
    # allowed, use every arc instance exactly once.
    d, r = instance
    n = d.vertex_count
    arcs = Counter(d.arcs)
    hamiltonian = [(0,) + rest + (0,) for rest in permutations(range(1, n))
                   if all(arcs[p] for p in zip((0,) + rest, rest + (0,)))]
    exists = any(sum((Counter(zip(c, c[1:])) for c in pick), Counter()) == arcs
                 for pick in combinations_with_replacement(hamiltonian, r))
    res = hamiltonian_decomposition(d)
    assert res.status == ("decomposed" if exists else "exhausted")
    assert res.certificate is None or res.certificate.is_valid()


def test_reduction_of_a_long_ring_is_one_merged_2_cycle():
    # Every vertex but the two terminals is suppressed; the witness expands
    # back to the whole ring.
    n = 1500
    d = build_digraph(n, [(v, (v + 1) % n) for v in range(n)])
    (capacity, *_), _, bound = _reduce_instance(d, frozenset({0, 750}))
    assert capacity == {(0, 750): 1, (750, 0): 1}
    assert bound == 1
    res = max_cycle_packing(d, {0, 750})
    assert (res.value, res.certified) == (1, True)
    assert res.packing.cycles == (tuple(range(n)) + (0,),)
