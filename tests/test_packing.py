import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from steinercycles import (
    CyclePacking,
    build_digraph,
    canonical_cycle,
    enumerate_steiner_cycles,
    max_cycle_packing,
    min_packing_number,
    packing_exists,
    parse_witness,
    reverse_cycle,
    serialize_witness,
    validate_cycle,
    verify_packing,
)
from steinercycles.packing import _colex_subsets
from helpers import (
    brute_max_packing,
    brute_min_packing,
    brute_steiner_cycles,
    rotate_min,
)


def _bidirected(n):
    return build_digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def _random_digraph(rng, lo=3, hi=5, p=0.45):
    n = rng.randint(lo, hi)
    arcs = [(u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() < p]
    return build_digraph(n, arcs)


def test_validate_cycle():
    d = build_digraph(4, [(0, 1), (1, 2), (2, 0), (0, 2)])
    validate_cycle(d, (0, 1, 2, 0))
    with pytest.raises(ValueError):
        validate_cycle(d, (0, 1, 2))          # open
    with pytest.raises(ValueError):
        validate_cycle(d, (0, 0))             # too short
    with pytest.raises(ValueError):
        validate_cycle(d, (0, 2, 1, 0))       # missing arcs
    with pytest.raises(ValueError):
        validate_cycle(d, (0, 1, 2, 0, 2, 0))  # revisits


def test_canonical_cycle_rotation():
    assert canonical_cycle((2, 3, 1, 2)) == (1, 2, 3, 1)
    assert canonical_cycle((2, 3, 1)) == (1, 2, 3, 1)
    # anchored at the smallest terminal, not the smallest vertex
    assert canonical_cycle((0, 3, 1, 0), terminals={1, 3}) == (1, 0, 3, 1)


def test_enumerate_bidirected_k4():
    d = _bidirected(4)
    cycles = enumerate_steiner_cycles(d, {0, 1})
    assert len(cycles) == 11
    assert cycles == sorted(cycles)
    assert all(seq[0] == seq[-1] == 0 for seq in cycles)
    assert set(cycles) == set(brute_steiner_cycles(d, {0, 1}))


def test_enumerate_cap_is_prefix():
    d = _bidirected(4)
    full = enumerate_steiner_cycles(d, {0, 1})
    assert enumerate_steiner_cycles(d, {0, 1}, cap=4) == full[:4]
    assert enumerate_steiner_cycles(d, {0, 1}, cap=0) == []


def test_enumerate_matches_brute_random():
    rng = random.Random(7)
    for _ in range(40):
        d = _random_digraph(rng)
        k = rng.randint(2, min(3, d.vertex_count))
        terms = frozenset(rng.sample(range(d.vertex_count), k))
        got = enumerate_steiner_cycles(d, terms)
        # the enumerator anchors cycles at min(terms); the brute listing at
        # the smallest vertex, so compare rotation classes
        assert sorted(rotate_min(seq) for seq in got) == \
            brute_steiner_cycles(d, terms)
        assert len(set(got)) == len(got)


def test_max_packing_matches_brute_random():
    rng = random.Random(11)
    for _ in range(60):
        d = _random_digraph(rng, p=0.5)
        k = rng.randint(2, min(3, d.vertex_count))
        terms = frozenset(rng.sample(range(d.vertex_count), k))
        res = max_cycle_packing(d, terms)
        assert res.certified
        assert res.value == brute_max_packing(d, terms)
        assert verify_packing(res.packing)
        assert len(res.packing) == res.value


def test_max_packing_respects_multiplicities():
    # doubling every arc of a triangle doubles the packing
    tri = [(0, 1), (1, 2), (2, 0)]
    assert max_cycle_packing(build_digraph(3, tri), {0, 1, 2}).value == 1
    d2 = build_digraph(3, tri + tri)
    res = max_cycle_packing(d2, {0, 1, 2})
    assert res.value == 2
    assert verify_packing(res.packing)
    assert res.value == brute_max_packing(d2, {0, 1, 2})


def test_packing_exists_both_answers():
    d = _bidirected(4)
    yes = packing_exists(d, {0, 1}, 3)
    assert yes.exists and yes.certified
    assert verify_packing(yes.packing) and len(yes.packing.cycles) == 3
    no = packing_exists(d, {0, 1}, 4)
    assert not no.exists and no.certified and no.packing is None
    with pytest.raises(ValueError):
        packing_exists(d, {0, 1}, 0)


def test_zero_when_no_cycle_through_terminals():
    d = build_digraph(3, [(0, 1), (1, 2)])
    res = max_cycle_packing(d, {0, 2})
    assert res.value == 0 and res.certified
    assert res.packing.cycles == ()


def test_min_packing_number_matches_brute():
    rng = random.Random(23)
    for _ in range(25):
        d = _random_digraph(rng, lo=3, hi=4, p=0.5)
        for k in (2, 3):
            if k > d.vertex_count:
                continue
            res = min_packing_number(d, k)
            assert res.certified
            assert res.value == brute_min_packing(d, k)
            assert len(res.witness_set) == k
            assert verify_packing(res.witness)
            assert len(res.witness) == res.value


def test_min_packing_witness_attains_value():
    d = _bidirected(4)
    res = min_packing_number(d, 3)
    assert res.value == 2
    got = max_cycle_packing(d, res.witness_set)
    assert got.value == res.value


def test_min_packing_rejects_bad_k():
    d = _bidirected(3)
    with pytest.raises(ValueError):
        min_packing_number(d, 1)
    with pytest.raises(ValueError):
        min_packing_number(d, 4)


def test_orbit_scan_solves_one_set_on_complete():
    # every permutation of a complete digraph is an automorphism, so the
    # scan solves {0..k-1} alone and matches the minimum over every k-set
    for n, k in [(4, 2), (4, 3), (5, 2), (5, 4)]:
        d = _bidirected(n)
        assert d.twin_classes == (tuple(range(n)),)
        res = min_packing_number(d, k)
        assert res.certified
        assert res.value == min(max_cycle_packing(d, s).value
                                for s in combinations(range(n), k))
        assert res.witness_set == frozenset(range(k))
        assert res.nodes == max_cycle_packing(d, range(k)).nodes


def test_colex_subsets_order():
    for n in range(2, 8):
        for k in range(1, n + 1):
            want = sorted(combinations(range(n), k), key=lambda s: s[::-1])
            assert list(_colex_subsets(n, k)) == want


def test_node_budget_gives_uncertified_bound():
    d = _bidirected(5)
    res = max_cycle_packing(d, {0, 1}, node_budget=3)
    assert not res.certified
    exact = max_cycle_packing(d, {0, 1})
    assert res.value <= exact.value
    assert verify_packing(res.packing)


def test_budget_negative_answer_not_certified():
    d = _bidirected(4)
    res = packing_exists(d, {0, 1}, 3, node_budget=2)
    if not res.exists:
        assert not res.certified


def test_reverse_cycle():
    d = _bidirected(4)
    assert reverse_cycle(d, (0, 1, 2, 0)) == (0, 2, 1, 0)
    assert reverse_cycle(d, (0, 1, 0)) == (0, 1, 0)
    with pytest.raises(ValueError):
        reverse_cycle(build_digraph(3, [(0, 1), (1, 2), (2, 0)]), (0, 1, 2, 0))


def test_verify_packing_rejects_overuse_and_strays():
    d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    tri = (0, 1, 2, 0)
    assert verify_packing(CyclePacking(d, frozenset({0, 1}), (tri,)))
    assert not verify_packing(CyclePacking(d, frozenset({0, 1}), (tri, tri)))
    # a cycle missing a terminal
    d2 = build_digraph(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
    assert not verify_packing(CyclePacking(d2, frozenset({0, 2}), ((0, 1, 0),)))


def test_witness_text_round_trip():
    cycles = ((0, 1, 2, 0), (0, 2, 1, 0))
    text = serialize_witness(2, cycles)
    value, parsed = parse_witness(text)
    assert value == 2 and parsed == cycles
    assert text.splitlines()[0] == "lambda 2"


@pytest.mark.parametrize("text", [
    "cycle: 0 1 0\n",            # no lambda line
    "lambda 1\ncycle: 0 1\n",    # short cycle
    "lambda x\n",
    "lambda 1\nlambda 1\n",
])
def test_witness_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_witness(text)


@given(st.integers(0, 2 ** 30))
def test_every_subset_at_least_min_packing(seed):
    rng = random.Random(seed)
    d = _random_digraph(rng, lo=3, hi=4, p=0.55)
    n = d.vertex_count
    k = rng.randint(2, n)
    res = min_packing_number(d, k)
    for subset in combinations(range(n), k):
        assert max_cycle_packing(d, subset).value >= res.value
