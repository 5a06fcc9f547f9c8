import random

import networkx as nx
import pytest

from steinercycles import (
    LinkageInstance,
    build_digraph,
    build_graph,
    eulerian_gadget,
    is_eulerian,
    is_planar,
    is_symmetric,
    max_cycle_packing,
    packing_exists,
    parse_digraph,
    replacement_gadget,
    planar_gadget,
    serialize_gadget,
)
from helpers import (
    brute_hamiltonian_cycle,
    brute_two_linkage,
    nx_graph,
)


def _ring_vertices(gadget):
    return sorted(gadget.terminals)


def test_linkage_instance_validation():
    d = build_digraph(4, [(0, 1)])
    LinkageInstance(d, 0, 1, 2, 3)
    with pytest.raises(ValueError):
        LinkageInstance(d, 0, 1, 2, 2)      # repeated terminal
    with pytest.raises(ValueError):
        LinkageInstance(d, 0, 1, 2, 4)      # out of range
    with pytest.raises(ValueError):
        LinkageInstance(d, 0, 1, 2, 3, d1=0, d2=1)


def test_linkage_instance_refuses_a_demand_that_is_not_an_integer():
    d = build_digraph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="integer"):
        LinkageInstance(d, 0, 1, 2, 3, d1=1.5, d2=1)


def test_eulerian_gadget_rejects_bad_input():
    simple = build_digraph(4, [(0, 1)])
    with pytest.raises(ValueError):
        eulerian_gadget(LinkageInstance(simple, 0, 1, 2, 3), 2)
    doubled = build_digraph(4, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="the linkage digraph must be a "
                       r"simple digraph \(no parallel arcs\)"):
        eulerian_gadget(LinkageInstance(doubled, 0, 1, 2, 3), 3)


def test_eulerian_gadget_structure():
    d = build_digraph(4, [(0, 1), (2, 3)])
    gadget = eulerian_gadget(LinkageInstance(d, 0, 1, 2, 3), 3)
    assert gadget.threshold == 2            # balanced input: p = 0
    assert len(gadget.terminals) == 3
    assert {gadget.trace[v] for v in gadget.terminals} == {"x_1", "x_2", "x_3"}
    assert gadget.digraph.is_simple()
    assert is_eulerian(gadget.digraph)
    # every ring vertex is saturated at the threshold
    *_, out, into = gadget.digraph.support()
    for v in gadget.terminals:
        assert out[v] == gadget.threshold
        assert into[v] == gadget.threshold


def test_eulerian_gadget_ring_degrees_with_helpers():
    d = build_digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
    inst = LinkageInstance(d, 0, 3, 1, 2)
    for k in (3, 4, 5):
        gadget = eulerian_gadget(inst, k)
        assert len(gadget.terminals) == k
        assert gadget.digraph.is_simple()
        *_, out, into = gadget.digraph.support()
        for v in gadget.terminals:
            assert out[v] == gadget.threshold
            assert into[v] == gadget.threshold


def test_eulerian_gadget_packs_threshold_on_yes_instance():
    # two vertex-disjoint demand arcs: trivially linkable
    d = build_digraph(4, [(0, 1), (2, 3)])
    gadget = eulerian_gadget(LinkageInstance(d, 0, 1, 2, 3), 3)
    res = max_cycle_packing(gadget.digraph, gadget.terminals)
    assert res.certified and res.value == gadget.threshold


def test_eulerian_gadget_packs_threshold_sharing_a_vertex():
    # both paths cross vertex 4 but on different arcs
    d = build_digraph(5, [(0, 4), (4, 1), (2, 4), (4, 3)])
    assert brute_two_linkage(d, 0, 1, 2, 3)
    for k in (3, 4, 5):
        gadget = eulerian_gadget(LinkageInstance(d, 0, 1, 2, 3), k)
        res = packing_exists(gadget.digraph, gadget.terminals,
                             gadget.threshold)
        assert res.exists and res.certified, k


def test_eulerian_gadget_refutes_shared_arc_instance():
    # both demand paths are forced through the single arc 4 -> 5
    d = build_digraph(6, [(0, 4), (4, 5), (5, 1), (2, 4), (5, 3)])
    assert not brute_two_linkage(d, 0, 1, 2, 3)
    gadget = eulerian_gadget(LinkageInstance(d, 0, 1, 2, 3), 3)
    res = packing_exists(gadget.digraph, gadget.terminals, gadget.threshold)
    assert not res.exists and res.certified


def test_eulerian_gadget_refutes_missing_demand():
    # s2 = 2 has no outgoing arc at all
    d = build_digraph(4, [(0, 1)])
    gadget = eulerian_gadget(LinkageInstance(d, 0, 1, 2, 3), 3)
    res = packing_exists(gadget.digraph, gadget.terminals, gadget.threshold)
    assert not res.exists and res.certified


def test_eulerian_gadget_can_reach_threshold_without_linkage():
    """Regression: a ring of terminals alone can be saturated by cycles
    that pair the splice arcs in rotated order, and so reached its
    threshold on this unroutable instance (t1 = 2 has no incoming arc).
    With the non-terminal x_0 on the ring the threshold is refuted."""
    d = build_digraph(5, [(0, 1), (0, 3), (0, 4), (1, 3), (2, 0), (3, 0)])
    inst = LinkageInstance(d, 3, 2, 4, 1)
    assert not brute_two_linkage(d, 3, 2, 4, 1)
    for k in (3, 4, 5):
        gadget = eulerian_gadget(inst, k)
        assert gadget.threshold == 6
        res = packing_exists(gadget.digraph, gadget.terminals,
                             gadget.threshold)
        assert not res.exists and res.certified, k


def test_planar_gadget_structure_and_planarity():
    grid = build_digraph(4, [(0, 1), (1, 0), (0, 2), (2, 0),
                             (1, 3), (3, 1), (2, 3), (3, 2)])
    inst = LinkageInstance(grid, 0, 3, 1, 2, d1=1, d2=2)
    gadget = planar_gadget(inst, 2)
    assert gadget.threshold == 3
    assert len(gadget.terminals) == 2
    assert gadget.digraph.is_simple()
    assert is_planar(gadget.digraph)
    assert {gadget.trace[v] for v in gadget.terminals} == {"x_1", "x_2"}


def test_planar_gadget_rejects_bad_input():
    grid = build_digraph(4, [(0, 1), (1, 3), (2, 3)])
    with pytest.raises(ValueError):
        planar_gadget(LinkageInstance(grid, 0, 3, 1, 2, 1, 1), 1)
    with pytest.raises(ValueError):
        planar_gadget(LinkageInstance(grid, 0, 3, 1, 2), 2)  # demands missing
    doubled = build_digraph(4, [(0, 1), (1, 3), (2, 3), (2, 3)])
    with pytest.raises(ValueError, match="the linkage digraph must be a "
                       r"simple digraph \(no parallel arcs\)"):
        planar_gadget(LinkageInstance(doubled, 0, 3, 2, 1, 1, 1), 2)


def test_planar_gadget_tracks_demand_feasibility():
    # full bidirected 2 x 2 grid, terminals on the corners
    grid = build_digraph(4, [(0, 1), (1, 0), (0, 2), (2, 0),
                             (1, 3), (3, 1), (2, 3), (3, 2)])
    expected = {(1, 1): True, (2, 1): False, (2, 2): False}
    for (d1, d2), feasible in expected.items():
        inst = LinkageInstance(grid, 0, 3, 1, 2, d1, d2)
        gadget = planar_gadget(inst, 2)
        res = packing_exists(gadget.digraph, gadget.terminals,
                             gadget.threshold)
        assert res.certified
        assert res.exists == feasible, (d1, d2)


def test_planar_gadget_larger_ring():
    grid = build_digraph(4, [(0, 1), (1, 0), (0, 2), (2, 0),
                             (1, 3), (3, 1), (2, 3), (3, 2)])
    inst = LinkageInstance(grid, 0, 3, 1, 2, 1, 1)
    gadget = planar_gadget(inst, 4)
    assert len(gadget.terminals) == 4
    assert is_planar(gadget.digraph)
    res = packing_exists(gadget.digraph, gadget.terminals, gadget.threshold)
    assert res.exists and res.certified


def test_replacement_gadget_structure():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    gadget = replacement_gadget(g, 2)
    assert gadget.threshold == 2
    assert gadget.terminals == frozenset(range(4))
    assert is_symmetric(gadget.digraph)
    assert is_eulerian(gadget.digraph)
    assert is_planar(gadget.digraph)
    # one subdivision vertex per edge per channel, four arcs each
    assert gadget.digraph.vertex_count == 4 + 2 * 4
    assert len(gadget.digraph.arcs) == 4 * 2 * 4
    with pytest.raises(ValueError):
        replacement_gadget(g, 0)


def test_replacement_gadget_cycle_and_star():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    for copies in (1, 2):
        yes = replacement_gadget(c4, copies)
        res = packing_exists(yes.digraph, yes.terminals, yes.threshold)
        assert res.exists and res.certified
        no = replacement_gadget(star, copies)
        res = packing_exists(no.digraph, no.terminals, no.threshold)
        assert not res.exists and res.certified


def test_replacement_gadget_matches_brute_hamiltonicity():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(4, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.5]
        g = build_graph(n, edges)
        if not nx.is_connected(nx_graph(g)):
            continue
        copies = rng.choice((1, 2))
        gadget = replacement_gadget(g, copies)
        res = packing_exists(gadget.digraph, gadget.terminals,
                             gadget.threshold)
        assert res.certified
        assert res.exists == brute_hamiltonian_cycle(g)


def test_replacement_gadget_planarity_follows_input():
    import networkx as nx
    k5 = build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    assert not nx.check_planarity(nx_graph(k5))[0]
    assert not is_planar(replacement_gadget(k5, 1).digraph)


def test_serialize_gadget_sections():
    d = build_digraph(4, [(0, 1), (2, 3)])
    gadget = eulerian_gadget(LinkageInstance(d, 0, 1, 2, 3), 3)
    text = serialize_gadget(gadget)
    lines = text.splitlines()
    assert lines[0] == f"n {gadget.digraph.vertex_count}"
    assert lines[-1] == f"L: {gadget.threshold}"
    assert lines[-2] == "S: " + ",".join(str(v) for v in sorted(gadget.terminals))
    roles = [ln for ln in lines if ln.startswith("role ")]
    assert len(roles) == len(gadget.trace)
    # the digraph section alone parses back to the same digraph
    digraph_lines = [ln for ln in lines if ln.startswith(("n ", "a "))]
    assert parse_digraph("\n".join(digraph_lines)) == gadget.digraph
