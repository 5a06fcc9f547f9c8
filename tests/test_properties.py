"""Structural invariants checked on randomized inputs."""

import random
from collections import Counter
from itertools import combinations

from hypothesis import assume, given
from hypothesis import strategies as st

from steinercycles import (
    build_digraph,
    canonical_cycle,
    max_cycle_packing,
    min_packing_number,
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
    bound = min(min(d.out_degree(v), d.in_degree(v)) for v in terms)
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
    return Counter((image(a), image(b)) for (a, b) in d.arcs) == d.multiplicity


@given(_twinned_multidigraphs())
def test_twin_classes_are_exactly_the_swappable_pairs(d):
    classes = d.twin_classes
    assert sorted(v for c in classes for v in c) == list(range(d.vertex_count))
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)
    cls = {v: c for c in classes for v in c}
    for r, v in combinations(range(d.vertex_count), 2):
        assert _swap_preserves_arcs(d, r, v) == (cls[r] is cls[v]), (r, v)


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
    assert got.nodes <= sum(res.nodes for _, res in scan)
