import random
from collections import Counter
from itertools import permutations

import networkx as nx
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from networkx.algorithms.connectivity import local_node_connectivity

from steinercycles import (
    arc_disjoint_demand_paths,
    build_digraph,
    build_graph,
    hamiltonian_cycle,
    max_cycle_packing,
    symmetric_two_packing_decision,
    weak_two_linkage,
)
from helpers import (
    brute_demand_paths,
    brute_hamiltonian_cycle,
    brute_max_packing,
    brute_two_linkage,
    simple_paths,
)


def _path_arcs_ok(d, path, s, t):
    if path[0] != s or path[-1] != t:
        return False
    if len(set(path)) != len(path):
        return False
    return all((u, v) in d.arcs for u, v in zip(path, path[1:]))


def _arc_usage_within_caps(d, paths):
    usage = Counter()
    for p in paths:
        usage.update(zip(p, p[1:]))
    caps = Counter(d.arcs)
    return all(usage[a] <= caps[a] for a in usage)


def test_two_linkage_hand_cases():
    # disjoint direct arcs
    d = build_digraph(4, [(0, 1), (2, 3)])
    ans = weak_two_linkage(d, 0, 1, 2, 3)
    assert ans.decision and ans.witness == ((0, 1), (2, 3))
    # both demands forced through one arc
    d = build_digraph(6, [(0, 4), (4, 5), (5, 1), (2, 4), (5, 3)])
    assert not weak_two_linkage(d, 0, 1, 2, 3).decision
    # sharing a vertex is fine
    d = build_digraph(5, [(0, 4), (4, 1), (2, 4), (4, 3)])
    assert weak_two_linkage(d, 0, 1, 2, 3).decision


def test_two_linkage_requires_distinct_terminals():
    d = build_digraph(4, [(0, 1)])
    with pytest.raises(ValueError):
        weak_two_linkage(d, 0, 1, 1, 3)
    with pytest.raises(ValueError):
        weak_two_linkage(d, 0, 1, 2, 5)


def test_two_linkage_matches_brute():
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randint(4, 6)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = [a for a in pairs if rng.random() < 0.3]
        d = build_digraph(n, arcs)
        s1, t1, s2, t2 = rng.sample(range(n), 4)
        ans = weak_two_linkage(d, s1, t1, s2, t2)
        assert ans.decision == brute_two_linkage(d, s1, t1, s2, t2)
        if ans.decision:
            p1, p2 = ans.witness
            assert _path_arcs_ok(d, p1, s1, t1)
            assert _path_arcs_ok(d, p2, s2, t2)
            assert _arc_usage_within_caps(d, [p1, p2])


def test_demand_paths_hand_cases():
    grid = build_digraph(4, [(0, 1), (1, 0), (0, 2), (2, 0),
                             (1, 3), (3, 1), (2, 3), (3, 2)])
    yes = arc_disjoint_demand_paths(grid, 0, 3, 1, 1, 2, 1)
    assert yes.decision
    first, second = yes.witness
    assert len(first) == 1 and len(second) == 1
    assert not arc_disjoint_demand_paths(grid, 0, 3, 2, 1, 2, 1).decision
    assert not arc_disjoint_demand_paths(grid, 0, 3, 2, 1, 2, 2).decision


def test_demand_paths_use_parallel_arcs(monkeypatch):
    # one 0 -> 2 copy cannot carry two paths; a second copy can
    single = build_digraph(4, [(0, 2), (2, 1), (2, 1), (2, 3)])
    assert not arc_disjoint_demand_paths(single, 0, 1, 2, 2, 3, 1).decision
    assert not brute_demand_paths(single, 0, 1, 2, 2, 3, 1)
    doubled = build_digraph(4, [(0, 2), (0, 2), (2, 1), (2, 1), (2, 3)])
    ans = arc_disjoint_demand_paths(doubled, 0, 1, 2, 2, 3, 1)
    assert ans.decision
    first, _ = ans.witness
    assert first == ((0, 2, 1), (0, 2, 1))

    # maxflow(0 -> 1) in `single` is 1 < 2, so the flow precheck refuses it
    # in either slot order before any path is searched
    import steinercycles.oracles as oracles_module

    def _no_search(*args, **kwargs):
        raise AssertionError("path search reached past the flow precheck")

    monkeypatch.setattr(oracles_module, "_lex_paths", _no_search)
    assert not arc_disjoint_demand_paths(single, 0, 1, 2, 2, 3, 1).decision
    assert not arc_disjoint_demand_paths(single, 2, 3, 1, 0, 1, 2).decision


def test_demand_paths_rejects_bad_demands():
    d = build_digraph(4, [(0, 1)])
    with pytest.raises(ValueError):
        arc_disjoint_demand_paths(d, 0, 1, 0, 2, 3, 1)


def test_demand_paths_refuse_a_demand_that_is_not_an_integer():
    d = build_digraph(4, [(0, 1), (0, 1), (2, 3)])
    with pytest.raises(ValueError, match="integer"):
        arc_disjoint_demand_paths(d, 0, 1, 1.5, 2, 3, 1)


def test_linkage_oracles_refuse_a_terminal_that_is_not_an_integer():
    d = build_digraph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="integer"):
        weak_two_linkage(d, 0.5, 1, 2, 3)
    with pytest.raises(ValueError, match="integer"):
        arc_disjoint_demand_paths(d, 0, 1, 1, 2, 3.0, 1)


def test_demand_paths_matches_brute():
    rng = random.Random(43)
    for _ in range(80):
        n = rng.randint(4, 6)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = [a for a in pairs if rng.random() < 0.35]
        # sprinkle in a parallel copy now and then
        if arcs and rng.random() < 0.3:
            arcs.append(rng.choice(arcs))
        d = build_digraph(n, arcs)
        s1, t1, s2, t2 = rng.sample(range(n), 4)
        d1 = rng.randint(1, 2)
        d2 = rng.randint(1, 2)
        ans = arc_disjoint_demand_paths(d, s1, t1, d1, s2, t2, d2)
        assert ans.decision == brute_demand_paths(d, s1, t1, d1, s2, t2, d2)
        if ans.decision:
            first, second = ans.witness
            assert len(first) == d1 and len(second) == d2
            assert all(_path_arcs_ok(d, p, s1, t1) for p in first)
            assert all(_path_arcs_ok(d, p, s2, t2) for p in second)
            assert _arc_usage_within_caps(d, list(first) + list(second))


def test_hamiltonian_cycle_hand_cases():
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    ans = hamiltonian_cycle(c5)
    assert ans.decision
    seq = ans.witness
    assert seq[0] == seq[-1] == 0 and len(seq) == 6
    assert seq[1] < seq[-2]
    assert not hamiltonian_cycle(build_graph(4, [(0, 1), (0, 2), (0, 3)])).decision
    assert not hamiltonian_cycle(build_graph(2, [(0, 1)])).decision


def test_hamiltonian_cycle_matches_brute():
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(3, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = build_graph(n, [e for e in pairs if rng.random() < 0.5])
        ans = hamiltonian_cycle(g)
        assert ans.decision == brute_hamiltonian_cycle(g)
        if ans.decision:
            seq = ans.witness
            assert len(set(seq[:-1])) == n
            assert all(g.has_edge(u, v) for u, v in zip(seq, seq[1:]))


@st.composite
def _linkage_instances(draw):
    n = draw(st.integers(4, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=14))  # may repeat
    s1, t1, s2, t2 = draw(st.permutations(range(n)))[:4]
    return build_digraph(n, arcs), s1, t1, s2, t2


@st.composite
def _graphs(draw):
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else ()
    return build_graph(n, edges)


@pytest.mark.deep
@given(_linkage_instances(), _graphs())
def test_witnesses_are_the_lexicographically_first(instance, g):
    # Both oracles return the first witness in lexicographic order, found
    # here by brute force: the first arc-disjoint pair over the sorted path
    # lists, and the first permutation of 1..n-1 that closes a tour at 0.
    d, s1, t1, s2, t2 = instance
    pairs = ((p1, p2) for p1 in sorted(simple_paths(d, s1, t1))
             for p2 in sorted(simple_paths(d, s2, t2)))
    first_pair = next((pair for pair in pairs
                       if _arc_usage_within_caps(d, pair)), None)
    assert weak_two_linkage(d, s1, t1, s2, t2).witness == first_pair

    n = g.vertex_count
    tours = ((0,) + perm + (0,) for perm in permutations(range(1, n)))
    first_tour = next((seq for seq in tours if n >= 3 and all(
        g.has_edge(u, v) for u, v in zip(seq, seq[1:]))), None)
    assert hamiltonian_cycle(g).witness == first_tour


def test_symmetric_decision_requires_symmetry():
    # Symmetry is of the support: a doubled arc needs one reverse arc.  It
    # is checked before the terminals are.
    one_way = build_digraph(3, [(0, 1)])
    for terminals in ({0, 1}, {0, 7}, {0}):
        with pytest.raises(ValueError, match="requires a symmetric digraph"):
            symmetric_two_packing_decision(one_way, terminals)
    assert not symmetric_two_packing_decision(
        build_digraph(3, [(0, 1), (0, 1), (1, 0)]), {0, 1})
    with pytest.raises(ValueError) as err:
        symmetric_two_packing_decision(build_digraph(3, [(0, 1), (1, 0)]),
                                       {0, 7})
    assert "symmetric" not in str(err.value)


def test_symmetric_decision_two_terminals():
    # a path gives only one u-v route; a cycle gives two
    path = build_digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    assert not symmetric_two_packing_decision(path, {0, 2})
    ring = build_digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1),
                             (2, 3), (3, 2), (3, 0), (0, 3)])
    assert symmetric_two_packing_decision(ring, {0, 2})
    # two parallel routes through distinct middles
    theta = build_digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1),
                              (0, 3), (3, 0), (3, 2), (2, 3)])
    assert symmetric_two_packing_decision(theta, {0, 2})


def test_symmetric_decision_counts_a_doubled_2_cycle():
    # With both arcs doubled the 2-cycle (0, 1, 0) fits twice, though the
    # underlying graph has a single 0-1 route; the edge 1-2 adds none.
    doubled = [(0, 1), (0, 1), (1, 0), (1, 0)]
    for d in (build_digraph(2, doubled),
              build_digraph(3, doubled + [(1, 2), (2, 1)])):
        assert max_cycle_packing(d, {0, 1}).value == 2
        assert symmetric_two_packing_decision(d, {0, 1})
    # one arc of the pair doubled is not enough
    once = build_digraph(2, [(0, 1), (0, 1), (1, 0)])
    assert not symmetric_two_packing_decision(once, {0, 1})


@st.composite
def _symmetric_multidigraph_instances(draw):
    """Symmetric multidigraphs on two to six vertices, with two distinct
    terminals: each direction of a pair present gets its own multiplicity,
    1 to 3."""
    n = draw(st.integers(2, 6))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                arcs += [(u, v)] * draw(st.integers(1, 3))
                arcs += [(v, u)] * draw(st.integers(1, 3))
    u, v = draw(st.permutations(range(n)))[:2]
    return build_digraph(n, arcs), u, v


@pytest.mark.deep
@given(_symmetric_multidigraph_instances())
def test_symmetric_two_terminals_match_solver_on_multidigraphs(instance):
    # Parallel arcs let the 2-cycle fit twice; the solver is the reference.
    d, u, v = instance
    want = max_cycle_packing(d, {u, v}).value >= 2
    assert symmetric_two_packing_decision(d, {u, v}) == want


@st.composite
def _symmetric_two_terminal_instances(draw):
    """Simple symmetric digraphs on two to seven vertices, the bidirected
    random graphs, connected or not, with two distinct terminals."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)))
    u, v = draw(st.permutations(range(n)))[:2]
    return n, sorted(edges), u, v


@pytest.mark.deep
@given(_symmetric_two_terminal_instances())
@example((3, [(0, 1), (0, 2), (1, 2)], 0, 1))  # K3: two routes
@example((2, [(0, 1)], 0, 1))  # the 2-cycle: one route
@example((3, [(0, 1), (1, 2)], 0, 2))  # the path 0-1-2: one route
def test_symmetric_two_terminals_match_networkx_connectivity(instance):
    # Two terminals pack two Steiner cycles exactly when the underlying
    # graph carries two internally disjoint u-v paths, checked against
    # networkx's local node connectivity (0 when u and v are disconnected)
    # rather than the package's own flow.
    n, edges, u, v = instance
    d = build_digraph(n, [a for (x, y) in edges for a in ((x, y), (y, x))])
    g = nx.Graph(edges)
    g.add_nodes_from(range(n))
    want = local_node_connectivity(g, u, v) >= 2
    assert symmetric_two_packing_decision(d, {u, v}) == want


def test_symmetric_decision_matches_solver():
    rng = random.Random(53)
    for _ in range(80):
        n = rng.randint(3, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        arcs = []
        for (u, v) in pairs:
            if rng.random() < 0.5:
                arcs.extend([(u, v), (v, u)])
        d = build_digraph(n, arcs)
        k = rng.randint(2, n)
        terms = frozenset(rng.sample(range(n), k))
        want = max_cycle_packing(d, terms).value >= 2
        assert symmetric_two_packing_decision(d, terms) == want


def test_symmetric_decision_three_terminals_iff_any_cycle():
    # with at least three terminals, one Steiner cycle already implies two
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randint(3, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        arcs = []
        for (u, v) in pairs:
            if rng.random() < 0.45:
                arcs.extend([(u, v), (v, u)])
        d = build_digraph(n, arcs)
        k = rng.randint(3, n)
        terms = frozenset(rng.sample(range(n), k))
        has_one = brute_max_packing(d, terms) >= 1
        assert symmetric_two_packing_decision(d, terms) == has_one
