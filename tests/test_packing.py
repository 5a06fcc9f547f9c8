import random
from collections import Counter
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
from steinercycles.digraph import twin_partition
from steinercycles.families import make_family
from steinercycles.harness import eulerian_instances, planar_instances, \
    random_digraph, replacement_instances, symmetric_instances
from steinercycles.packing import Nodes, _colex_subsets, _enumerate_cycles, \
    _mask, cycle_pairs
from helpers import (
    brute_max_packing,
    brute_min_packing,
    brute_steiner_cycles,
    pruned_cycle_listing,
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


def test_canonical_cycle_refuses_a_cycle_through_no_terminal():
    with pytest.raises(ValueError, match="passes no terminal"):
        canonical_cycle((1, 2, 3, 1), terminals={0, 4})


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


def _mid_search_cases(rng, draws=300):
    # Seeded multidigraphs with parallel arcs, as the branch-and-bound sees
    # them: some support pairs saturated and a lower bound drawn from the
    # full listing, or None.  Yields (terms, succ, pred, lower, want), want
    # the full listing's cycles above `lower` that avoid every saturated
    # pair, in order.
    for _ in range(draws):
        d = _random_digraph(rng, lo=3, hi=6, p=0.5)
        if not d.arcs:
            continue
        d = build_digraph(d.vertex_count, list(d.arcs) + [
            rng.choice(d.arcs) for _ in range(rng.randint(1, 4))])
        k = rng.randint(2, min(4, d.vertex_count))
        terms = frozenset(rng.sample(range(d.vertex_count), k))
        full = enumerate_steiner_cycles(d, terms)
        if not full:
            continue
        support = sorted(set(d.arcs))
        saturated = set(rng.sample(support, rng.randint(0, len(support) // 2)))
        succ = [0] * d.vertex_count
        pred = [0] * d.vertex_count
        for (u, v) in support:
            if (u, v) not in saturated:
                succ[u] |= 1 << v
                pred[v] |= 1 << u
        lower = rng.choice(full + [None])
        want = [seq for seq in full
                if (lower is None or seq > lower)
                and saturated.isdisjoint(cycle_pairs(seq))]
        yield terms, succ, pred, lower, want


def test_enumerate_mid_search_matches_filtered_listing():
    # Inside the branch-and-bound the enumerator sees saturated pairs and a
    # lower bound: it must list exactly the full listing's cycles above
    # `lower` that avoid every saturated pair, in the same order.
    checked = 0
    for terms, succ, pred, lower, want in _mid_search_cases(random.Random(29)):
        got = list(_enumerate_cycles(min(terms), _mask(terms), succ, pred,
                                     lower, Nodes(None)))
        assert got == want, (sorted(terms), succ, pred, lower)
        checked += 1
    assert checked > 100


def test_enumerate_bounded_by_the_forced_first_arc():
    # A tight decision passes the bit of s0's lowest residual successor w:
    # the enumerator must list exactly the unbounded listing's cycles whose
    # second vertex is w, in the same order.  It enters no vertex after any
    # other first arc, so it costs at most one node more than the listing
    # over the residual without those arcs (whose root may fail the prune
    # that w then fails), and never more than the unbounded listing.
    checked = cut = 0
    for terms, succ, pred, lower, want in _mid_search_cases(random.Random(29),
                                                            900):
        s0 = min(terms)
        first = succ[s0] & -succ[s0]
        if not first or first == succ[s0]:
            continue
        w = first.bit_length() - 1
        bounded, plain, alone = Nodes(None), Nodes(None), Nodes(None)
        got = list(_enumerate_cycles(s0, _mask(terms), succ, pred, lower,
                                     bounded, first=first))
        assert got == [seq for seq in want if seq[1] == w], \
            (sorted(terms), succ, pred, lower)
        list(_enumerate_cycles(s0, _mask(terms), succ, pred, lower, plain))
        only_w = succ[:s0] + [first] + succ[s0 + 1:]
        list(_enumerate_cycles(s0, _mask(terms), only_w, pred, lower, alone))
        assert alone.count <= bounded.count <= min(alone.count + 1,
                                                   plain.count)
        checked += 1
        cut += len(got) < len(want)
    assert checked > 150 and cut > 50


def _sparse_host(rng):
    # A ring with a few chords and every vertex a terminal, or a small
    # random digraph with each arc subdivided up to twice and two or three
    # terminals; either may repeat an arc.
    if rng.random() < 0.4:
        n = rng.randint(3, 7)
        order = rng.sample(range(n), n)
        arcs = [(order[i], order[(i + 1) % n]) for i in range(n)]
        arcs += [tuple(rng.sample(range(n), 2))
                 for _ in range(rng.randint(0, 3))]
        terms = frozenset(range(n))
    else:
        b = rng.randint(2, 4)
        n = b
        arcs = []
        for u, v in [(u, v) for u in range(b) for v in range(b)
                     if u != v and rng.random() < 0.5]:
            k = min(rng.randint(0, 2), 7 - n)
            chain = [u, *range(n, n + k), v]
            n += k
            arcs += zip(chain, chain[1:])
        if not arcs:
            arcs = [(0, 1), (1, 0)]
        terms = frozenset(rng.sample(range(n), min(n, rng.randint(2, 3))))
    arcs += [rng.choice(arcs) for _ in range(rng.randint(0, 2))]
    return build_digraph(n, arcs), terms


def test_enumerate_mid_search_matches_brute_listing_on_sparse_hosts():
    # The enumerator against independent references on sparse hosts, where
    # most path ends have one way on, often into a vertex with no other way
    # in, so the prune is inherited along forced steps rather than run.
    # Its cycles are the brute-force listing rotated to the smallest
    # terminal, kept above `lower` and off the saturated pairs, in order;
    # its nodes are those of a plain search that runs the prune everywhere.
    rng = random.Random(31)
    for _ in range(400):
        d, terms = _sparse_host(rng)
        n = d.vertex_count
        full = sorted(canonical_cycle(seq, terms)
                      for seq in brute_steiner_cycles(d, terms))
        support = sorted(set(d.arcs))
        saturated = set(rng.sample(support, min(len(support) - 1,
                                                rng.randint(0, 2))))
        succ = [0] * n
        pred = [0] * n
        for (u, v) in support:
            if (u, v) not in saturated:
                succ[u] |= 1 << v
                pred[v] |= 1 << u
        lower = rng.choice(full + [None])
        want = [seq for seq in full
                if (lower is None or seq > lower)
                and saturated.isdisjoint(cycle_pairs(seq))]
        nodes = Nodes(None)
        got = list(_enumerate_cycles(min(terms), _mask(terms), succ, pred,
                                     lower, nodes))
        assert got == want, (d, sorted(terms), sorted(saturated), lower)
        listing = pruned_cycle_listing(n, set(support) - saturated, terms,
                                       lower)
        assert listing == (want, nodes.count), (d, sorted(terms), lower)


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


def test_merged_instances_expand_after_the_original_arc():
    # The reduction suppresses 4, then 3, then 2, merging the chains 0-3-4-1
    # and 0-2-1 onto the original arc (0, 1) in that order.  The reduced
    # cycles are three copies of (0, 1, 0); the copies expand over the
    # instances of (0, 1) in instance order, the original one first.
    d = build_digraph(5, [(0, 2), (1, 0), (2, 1), (0, 1), (3, 4), (0, 3),
                          (4, 1), (1, 0), (1, 0)])
    res = max_cycle_packing(d, {0, 1})
    assert (res.value, res.certified, res.nodes) == (3, True, 6)
    assert res.packing.cycles == ((0, 1, 0), (0, 3, 4, 1, 0), (0, 2, 1, 0))
    yes = packing_exists(d, {0, 1}, 2)
    assert (yes.exists, yes.certified, yes.nodes) == (True, True, 5)
    assert yes.packing.cycles == ((0, 1, 0), (0, 3, 4, 1, 0))


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
        assert twin_partition(*d.support()[:3]) == (tuple(range(n)),)
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


def test_search_tree_pinned():
    # Node counts and witnesses of fixed searches; a change to the
    # enumeration order, the pruning, the orbital branching or the rules at
    # the degree bound shows up here first.
    # At the degree bound the first arc is forced: every enumeration stops
    # after the cycles that start with it (524, 524, 652 and 98 nodes when
    # only the enumerator's output was cut there).
    no = packing_exists(make_family("complete:6"), range(6), 5)
    assert (no.exists, no.certified, no.nodes) == (False, True, 332)
    # Vertex 2 is forced, so this is the search over all six terminals.
    no = packing_exists(make_family("complete:6"), {0, 1, 3, 4, 5}, 5)
    assert (no.exists, no.certified, no.nodes) == (False, True, 332)
    yes = packing_exists(make_family("complete:6"), {0, 1, 2, 3}, 5)
    assert (yes.exists, yes.certified, yes.nodes) == (True, True, 461)
    res = max_cycle_packing(make_family("complete:7"), {0, 4, 5, 6})
    assert (res.value, res.certified, res.nodes) == (6, True, 85)
    assert res.packing.cycles == (
        (0, 1, 2, 3, 4, 5, 6, 0), (0, 2, 1, 3, 6, 5, 4, 0),
        (0, 3, 1, 4, 6, 2, 5, 0), (0, 4, 2, 6, 1, 5, 3, 0),
        (0, 5, 1, 6, 4, 3, 2, 0), (0, 6, 3, 5, 2, 4, 1, 0))
    res = max_cycle_packing(make_family("multipartite:2x3"), {0, 1, 4, 5})
    assert (res.value, res.certified, res.nodes) == (4, True, 33)
    assert res.packing.cycles == (
        (0, 2, 1, 4, 3, 5, 0), (0, 3, 1, 5, 2, 4, 0),
        (0, 4, 1, 2, 5, 3, 0), (0, 5, 1, 3, 4, 2, 0))


def test_cut_bound_refutes_at_the_first_backtrack():
    # Two bidirected K5s joined by the arcs 4->5 and 9->0: the degree bound
    # of {0, 9} is 4, but every Steiner cycle crosses 4->5, so
    # maxflow(0->9) = 1 and each decision above 1 stops at the first
    # backtrack.  The maximum is refuted at the bound 4 (13 nodes); that
    # search already held one cycle, so the ladder decides at 2 next and
    # is refuted there too (13 nodes).
    arcs = [(u, v) for lo in (0, 5) for u in range(lo, lo + 5)
            for v in range(lo, lo + 5) if u != v]
    d = build_digraph(10, arcs + [(4, 5), (9, 0)])
    for size in (2, 3, 4):
        no = packing_exists(d, {0, 9}, size)
        assert (no.exists, no.certified, no.nodes) == (False, True, 13), size
    res = max_cycle_packing(d, {0, 9})
    assert (res.value, res.certified, res.nodes) == (1, True, 26)


def test_budgeted_max_keeps_the_deepest_packing():
    # On K6 with all six terminals the decision at the degree bound 5 is a
    # no after 332 nodes, and its search holds four cycles long before
    # that.  The maximum is those four: no rung is left to decide, and a
    # budget that cuts the search short still reports them.
    d = make_family("complete:6")
    res = max_cycle_packing(d, range(6))
    assert (res.value, res.certified, res.nodes) == (4, True, 332)
    res = max_cycle_packing(d, range(6), node_budget=100)
    assert (res.value, res.certified) == (4, False)
    assert verify_packing(res.packing) and len(res.packing) == 4


def test_residual_cut_refutes_the_costliest_eulerian_gadgets():
    # The acceptance corpus's two largest Eulerian refutations: a few cycles
    # in, the residual's cut falls below the cycles still needed, and the
    # subtree is refuted (5,019 and 6,981 nodes with the root's cut alone).
    gadgets = {iid: g for iid, _, g in eulerian_instances(100, 1729)}
    for iid, most in (("eulerian-018", 1000), ("eulerian-020", 2500)):
        g = gadgets[iid]
        no = packing_exists(g.digraph, g.terminals, g.threshold)
        assert (no.exists, no.certified) == (False, True), iid
        assert no.nodes <= most, (iid, no.nodes)


def _corpus_decisions(family, count):
    # (host, terminals, size) of each decision of a harness corpus
    if family == "symmetric":
        return [(d, terms, 2)
                for _, d, terms in symmetric_instances(count, 1729)]
    instances = {"replacement": replacement_instances,
                 "eulerian": eulerian_instances,
                 "planar": planar_instances}[family]
    return [(g.digraph, g.terminals, g.threshold)
            for *_, g in instances(count, 1729)]


@pytest.mark.parametrize("family, count, total", [
    ("replacement", 200, 10081), ("eulerian", 100, 8134),
    ("planar", 50, 1882), ("symmetric", 100, 572)],
    ids=["replacement", "eulerian", "planar", "symmetric"])
def test_corpus_node_totals(family, count, total):
    # The decisions of the benchmark's corpus workload, 20,669 nodes in all,
    # so a rule that silently stops firing shows up here.  The two channel
    # vertices of an edge of the replacement gadget are twins, so a root
    # enumeration that walked every path would meet each Hamiltonian path
    # of the source graph once per choice of channels: the root's skip of
    # twin paths takes replacement from 19,840 nodes to 10,081.  Eulerian
    # reads 9,153 when the residual cut's patience counts the forced
    # vertices too.  Bounding a tight node's enumeration by its forced
    # first arc, not just its output, took the totals from 10,093, 8,414,
    # 2,248 and 573.
    nodes = 0
    for d, terminals, size in _corpus_decisions(family, count):
        res = packing_exists(d, terminals, size)
        assert res.certified
        nodes += res.nodes
    assert nodes == total


def test_min_packing_number_decides_at_the_degree_bound_first():
    # On K7 at k = 6 and on K2,2,2,2 at k = 7 the value is the degree bound
    # 6, so each solved set is settled by one decision at the bound (83 and
    # 204 nodes in all).
    for spec, k, most in (("complete:7", 6, 200), ("multipartite:2x4", 7, 1000)):
        res = min_packing_number(make_family(spec), k)
        assert (res.value, res.certified) == (6, True), spec
        assert res.nodes <= most, (spec, res.nodes)


def test_min_packing_number_sweep_node_total():
    # The lambda-k tables of the benchmark's sweep: 2,860 nodes on the
    # families and 3,492 on the random digraphs (3,105 and 3,520 while a
    # tight node's enumeration was cut at its forced first arc only in its
    # output; 3,983 and 6,152 before the scan ended with one decision with
    # every vertex a terminal; the families read 3,128 while the root's
    # enumerator kept walking the open twin paths after its group
    # arrived).
    tables = [(make_family(spec), k_max) for spec, k_max in (
        ("complete:5", 5), ("complete:6", 4), ("complete:7", 3),
        ("bipartite:3,4", 7), ("bipartite:3,5", 8), ("multipartite:2x3", 6))]
    rng = random.Random(1729)
    for _ in range(300):
        d = random_digraph(rng)
        tables.append((d, d.vertex_count))
    total = sum(min_packing_number(d, k).nodes
                for d, k_max in tables for k in range(2, k_max + 1))
    assert total == 6352


def test_packing_exists_refuses_a_size_that_is_not_an_integer():
    with pytest.raises(ValueError, match="integer"):
        packing_exists(_bidirected(4), {0, 1}, 1.5)


def test_max_cycle_packing_refuses_a_terminal_that_is_not_an_integer():
    with pytest.raises(ValueError, match="integer"):
        max_cycle_packing(_bidirected(4), [0, 2.9])


def test_forced_vertex_refutes_without_search():
    # Both terminals have in- and out-degree 1, the target.  Vertex 2 sends
    # two arcs into them, but a single cycle passes it only once.
    d = build_digraph(3, [(2, 0), (2, 1), (0, 2), (1, 2)])
    no = packing_exists(d, {0, 1}, 1)
    assert (no.exists, no.certified, no.nodes) == (False, True, 0)


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


def test_negative_node_budget_is_refused_before_any_work():
    # Each entry point that takes a budget checks it first: the invalid
    # terminal set, k and corpus count below are never looked at.
    from steinercycles.families import hamiltonian_decomposition
    from steinercycles.harness import FAMILIES
    d = _bidirected(4)
    calls = [lambda: max_cycle_packing(d, {0}, node_budget=-1),
             lambda: packing_exists(d, {0}, 0, node_budget=-1),
             lambda: min_packing_number(d, 1, node_budget=-1),
             lambda: hamiltonian_decomposition(d, node_budget=-1)]
    calls += [lambda run=run: run(0, node_budget=-1) for run in FAMILIES.values()]
    for call in calls:
        with pytest.raises(ValueError, match="node budget must be nonnegative"):
            call()
    # Budget 0 still means that no search node may be spent.
    assert not max_cycle_packing(d, {0, 1}, node_budget=0).certified
    assert hamiltonian_decomposition(make_family("complete:5"),
                                     node_budget=0).status == "decomposed"


def test_verify_packing_caches_nothing_on_the_host():
    # A host kept after a verify (as a caller's records keep it) must not
    # carry a multiplicity Counter, and a MultiDigraph has no room for one.
    d = _bidirected(5)
    res = packing_exists(d, {0, 1, 2}, 4)
    assert res.exists
    assert verify_packing(res.packing)
    tri = (0, 1, 2, 0)
    assert not verify_packing(CyclePacking(d, frozenset({0, 1}), (tri, tri)))
    assert not verify_packing(CyclePacking(d, frozenset({0, 1}), ((0, 1, 7, 0),)))
    assert not hasattr(d, "__dict__")
    with pytest.raises(AttributeError):
        d.multiplicity = Counter(d.arcs)


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
    "lambdax 2\ncycle: 0 1 0\n",  # first token must be exactly "lambda"
    "lambda_is 7\n",
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
