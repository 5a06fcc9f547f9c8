import random
import sys
from collections import Counter, namedtuple

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steinercycles import (
    build_digraph,
    build_graph,
    graph_is_planar,
    is_eulerian,
    is_planar,
    is_symmetric,
    min_semi_degree,
    parse_digraph,
    serialize_digraph,
    subdivide_arc,
    underlying_graph,
    validate_terminals,
)
from steinercycles.harness import DEFAULT_SEED, planar_instances
from helpers import nx_graph


def _bidirected(n):
    return build_digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def test_build_rejects_loops_and_range():
    with pytest.raises(ValueError):
        build_digraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        build_digraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_digraph(-1, [])
    # No per-vertex list can be longer than sys.maxsize; building the
    # digraph itself allocates nothing per vertex.
    with pytest.raises(ValueError):
        build_digraph(sys.maxsize + 1, [])
    assert build_digraph(sys.maxsize, [(0, 1)]).vertex_count == sys.maxsize
    with pytest.raises(ValueError):
        build_graph(2, [(1, 1)])


def test_parallel_arcs_kept_in_order():
    d = build_digraph(2, [(0, 1), (0, 1), (1, 0)])
    assert d.arcs == ((0, 1), (0, 1), (1, 0))
    capacity, succ, _, out, _ = d.support()
    assert capacity[(0, 1)] == 2
    assert out[0] == 2
    assert succ[0] == 1 << 1
    assert not d.is_simple()


_Arc = namedtuple("_Arc", "tail head")


class _Vertex(int):
    """An integral vertex that is not a plain int."""


def test_int_arc_tuples_are_kept_and_others_rebuilt():
    # A tuple of two plain ints is shared with the caller; a list, a tuple
    # subclass or an integral value that is not an int becomes a new tuple
    # of plain ints.
    arcs = [(0, 1), [1, 2], (True, 2), (_Vertex(2), 0), _Arc(2, 1), (1, 0)]
    d = build_digraph(3, arcs)
    assert d.arcs[0] is arcs[0] and d.arcs[5] is arcs[5]
    assert d.arcs == ((0, 1), (1, 2), (1, 2), (2, 0), (2, 1), (1, 0))
    for arc in d.arcs:
        assert type(arc) is tuple and {type(u) for u in arc} == {int}


def test_degrees_and_adjacency():
    d = build_digraph(4, [(0, 1), (0, 2), (2, 1), (3, 0)])
    _, succ, pred, out, into = d.support()
    assert succ[0] == 1 << 1 | 1 << 2
    assert pred[1] == 1 << 0 | 1 << 2
    assert into[1] == 2
    assert out[1] == 0
    assert (out, into) == ([2, 0, 1, 1], [1, 2, 1, 0])
    assert min_semi_degree(d) == 0
    assert succ[3] & 1 << 0 and not succ[0] & 1 << 3


@st.composite
def _multidigraphs(draw):
    # 0 to 6 vertices; arcs drawn with repetition from the ordered pairs,
    # so parallel arcs are common and vertices are often left isolated
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=14)) if pairs else []
    return build_digraph(n, arcs)


@given(_multidigraphs())
def test_support_matches_the_arcs_one_by_one(d):
    capacity, succ, pred, out, into = d.support()
    mult = Counter(d.arcs)
    assert type(capacity) is Counter
    assert list(capacity.items()) == list(mult.items())
    n = d.vertex_count
    assert len(succ) == len(pred) == len(out) == len(into) == n
    for u in range(n):
        for v in range(n):
            assert succ[u] >> v & 1 == pred[v] >> u & 1 == ((u, v) in mult)
        assert succ[u] >> n == pred[u] >> n == 0
        assert out[u] == sum(1 for (a, _) in d.arcs if a == u)
        assert into[u] == sum(1 for (_, b) in d.arcs if b == u)


def test_no_layer_leaves_state_on_a_digraph():
    # A MultiDigraph holds its vertex count and arcs and has no room for
    # anything else, so no layer can cache a view of the arcs on a host it
    # was given: not the solver, the verifier, the decomposition and its
    # check, the oracles, the gadgets, or the predicates.
    from steinercycles import (LinkageInstance, arc_disjoint_demand_paths,
                               eulerian_gadget, hamiltonian_decomposition,
                               make_family, max_cycle_packing,
                               min_packing_number, packing_exists,
                               planar_gadget, replacement_gadget,
                               symmetric_two_packing_decision, verify_packing,
                               weak_two_linkage)
    k5 = make_family("complete:5")
    assert verify_packing(max_cycle_packing(k5, {0, 1, 2}).packing)
    assert min_packing_number(k5, 3).certified
    assert hamiltonian_decomposition(k5).certificate.is_valid()
    grid = _bidirected(4)
    assert hamiltonian_decomposition(grid).status == "exhausted"
    assert symmetric_two_packing_decision(k5, {0, 1})
    assert symmetric_two_packing_decision(k5, {0, 1, 2})
    assert weak_two_linkage(grid, 0, 3, 1, 2).decision
    assert arc_disjoint_demand_paths(grid, 0, 3, 1, 1, 2, 1).decision
    gadgets = [eulerian_gadget(LinkageInstance(grid, 0, 3, 1, 2), 3),
               planar_gadget(LinkageInstance(grid, 0, 3, 1, 2, 1, 1), 2),
               replacement_gadget(underlying_graph(grid), 2)]
    hosts = [k5, grid]
    for gadget in gadgets:
        d = gadget.digraph
        res = packing_exists(d, gadget.terminals, gadget.threshold)
        assert res.certified
        assert not res.exists or verify_packing(res.packing)
        for predicate in (is_eulerian, is_planar, is_symmetric, min_semi_degree):
            predicate(d)
        hosts.append(d)
    for d in hosts:
        assert not hasattr(d, "__dict__")
        with pytest.raises(AttributeError):
            d.foo = 1


def test_validate_terminals():
    d = _bidirected(4)
    assert validate_terminals(d, [2, 0]) == frozenset({0, 2})
    with pytest.raises(ValueError):
        validate_terminals(d, [1])
    with pytest.raises(ValueError):
        validate_terminals(d, [0, 4])
    with pytest.raises(ValueError):
        validate_terminals(d, [0, 0])


def test_validate_terminals_refuses_a_member_that_is_not_an_integer():
    with pytest.raises(ValueError, match="integer"):
        validate_terminals(_bidirected(4), [0, 1.7])


def test_min_semi_degree_complete():
    for n in (2, 4, 6):
        assert min_semi_degree(_bidirected(n)) == n - 1


def test_is_eulerian():
    assert is_eulerian(build_digraph(3, [(0, 1), (1, 2), (2, 0)]))
    # balanced but disconnected
    assert not is_eulerian(build_digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)]))
    # isolated vertex counts against connectivity
    assert not is_eulerian(build_digraph(4, [(0, 1), (1, 2), (2, 0)]))
    assert not is_eulerian(build_digraph(2, [(0, 1)]))
    # no vertex, or one without arcs: balanced and connected
    assert is_eulerian(build_digraph(0, []))
    assert is_eulerian(build_digraph(1, []))


def test_is_symmetric():
    assert is_symmetric(_bidirected(3))
    assert is_symmetric(build_digraph(2, []))
    assert not is_symmetric(build_digraph(2, [(0, 1)]))
    # multiplicities need not match, only presence
    assert is_symmetric(build_digraph(2, [(0, 1), (0, 1), (1, 0)]))


def test_underlying_graph_merges_directions():
    d = build_digraph(3, [(0, 1), (1, 0), (1, 2)])
    g = underlying_graph(d)
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_subdivide_arc():
    d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    d2 = subdivide_arc(d, (1, 2))
    assert d2.vertex_count == 4
    mult = Counter(d2.arcs)
    assert mult[(1, 2)] == 0
    assert mult[(1, 3)] == 1 and mult[(3, 2)] == 1
    assert is_eulerian(d2)
    with pytest.raises(ValueError):
        subdivide_arc(d, (0, 2))


def test_subdivide_takes_one_instance_of_parallel_pair():
    d = build_digraph(2, [(0, 1), (0, 1), (1, 0)])
    d2 = subdivide_arc(d, (0, 1))
    mult = Counter(d2.arcs)
    assert mult[(0, 1)] == 1
    assert mult[(0, 2)] == 1 and mult[(2, 1)] == 1


def test_planarity_small_cases():
    k4 = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert graph_is_planar(k4)
    k5 = build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    assert not graph_is_planar(k5)
    k33 = build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    assert not graph_is_planar(k33)
    assert is_planar(_bidirected(4))
    assert not is_planar(_bidirected(5))


def test_planarity_subdivided_k5():
    # subdividing every edge must not hide the K5
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    out = []
    nxt = 5
    for (u, v) in edges:
        out.append((u, nxt))
        out.append((nxt, v))
        nxt += 1
    assert not graph_is_planar(build_graph(nxt, out))


@given(st.integers(0, 2 ** 30))
def test_planarity_matches_networkx(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if rng.random() < 0.45]
    g = build_graph(n, edges)
    assert graph_is_planar(g) == nx.check_planarity(nx_graph(g))[0]


def _grid_edges(rows, cols, diagonals=False):
    def at(i, j):
        return i * cols + j
    edges = [(at(i, j), at(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(at(i, j), at(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    if diagonals:
        edges += [(at(i, j), at(i + 1, j + 1))
                  for i in range(rows - 1) for j in range(cols - 1)]
    return edges


def _subdivided(n, edges, rng):
    """Each edge becomes a path through 0-2 new vertices; returns (n, edges)."""
    out = []
    for (a, b) in edges:
        inner = list(range(n, n + rng.randint(0, 2)))
        n += len(inner)
        path = [a] + inner + [b]
        out += zip(path, path[1:])
    return n, out


def _planar_like_networkx(n, edges, rng):
    """graph_is_planar on a random relabelling, checked against networkx."""
    perm = list(range(n))
    rng.shuffle(perm)
    g = build_graph(n, [(perm[u], perm[v]) for (u, v) in edges])
    verdict = graph_is_planar(g)
    assert verdict == nx.check_planarity(nx_graph(g))[0]
    return verdict


@given(st.integers(0, 2 ** 30))
def test_planarity_grids_with_chords_match_networkx(seed):
    rng = random.Random(seed)
    rows, cols = rng.choice([(r, c) for r in range(2, 9) for c in range(2, 9)
                             if 10 <= r * c <= 40])
    n = rows * cols
    edges = _grid_edges(rows, cols, diagonals=rng.random() < 0.5)
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))]
    _planar_like_networkx(n, edges, rng)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kuratowski", ["K5", "K3,3"])
def test_planarity_kuratowski_subdivision_in_planar_host(kuratowski, seed):
    rng = random.Random(seed)
    n = 30
    host = _grid_edges(5, 6, diagonals=True)
    assert _planar_like_networkx(n, host, rng)
    if kuratowski == "K5":
        branch = rng.sample(range(n), 5)
        pairs = [(a, b) for i, a in enumerate(branch) for b in branch[i + 1:]]
    else:
        branch = rng.sample(range(n), 6)
        pairs = [(a, b) for a in branch[:3] for b in branch[3:]]
    n, paths = _subdivided(n, pairs, rng)
    assert not _planar_like_networkx(n, host + paths, rng)


@given(st.integers(0, 2 ** 30))
def test_planarity_components_cut_vertices_bridges_match_networkx(seed):
    rng = random.Random(seed)
    n, edges = 0, []
    for _ in range(rng.randint(2, 4)):
        size = rng.randint(3, 7)
        glue = rng.choice(["apart", "cut vertex", "bridge"]) if n else "apart"
        offset = n - 1 if glue == "cut vertex" else n
        edges += [(offset + u, offset + v) for u in range(size)
                  for v in range(u + 1, size) if rng.random() < 0.6]
        if glue == "bridge":
            edges.append((rng.randrange(n), offset + rng.randrange(size)))
        n = offset + size
    _planar_like_networkx(n + rng.randint(0, 2), edges, rng)


def test_planarity_planar_gadget_outputs_plus_one_edge():
    rng = random.Random(DEFAULT_SEED)
    for _, _, gadget in planar_instances(50):
        g = underlying_graph(gadget.digraph)
        n = g.vertex_count
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if not g.has_edge(u, v)]
        _planar_like_networkx(n, sorted(g.edges) + [rng.choice(non_edges)], rng)


def test_planarity_deep_grid_at_default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        grid = _grid_edges(60, 60)
        assert graph_is_planar(build_graph(3600, grid))
        # a subdivided K3,3 hanging off the far corner of the grid
        k33 = [(a, b) for a in range(3600, 3603) for b in range(3603, 3606)]
        n, k33 = _subdivided(3606, k33, random.Random(0))
        assert not graph_is_planar(build_graph(n, grid + k33 + [(3599, 3600)]))
    finally:
        sys.setrecursionlimit(limit)


@given(st.integers(0, 2 ** 30))
def test_eulerian_matches_networkx(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = [a for a in pairs if rng.random() < 0.4]
    # parallel arcs: a second instance of every arc, which keeps a balanced
    # digraph balanced, or of a random few
    arcs += arcs if rng.random() < 0.3 else rng.sample(
        arcs, rng.randint(0, len(arcs)))
    d = build_digraph(n, arcs)
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(arcs)
    expect = (nx.is_weakly_connected(g)
              and all(g.in_degree(v) == g.out_degree(v) for v in g))
    assert is_eulerian(d) == expect


def test_digraph_text_round_trip():
    d = build_digraph(4, [(0, 1), (0, 1), (2, 3), (3, 0)])
    assert parse_digraph(serialize_digraph(d)) == d


def test_parse_digraph_accepts_comments_and_blanks():
    text = "# four vertices\nn 4\n\na 0 1\n  a 1 2  \n"
    d = parse_digraph(text)
    assert d.vertex_count == 4
    assert d.arcs == ((0, 1), (1, 2))


@pytest.mark.parametrize("text", [
    "a 0 1\n",                 # arc before n
    "n 2\nn 2\n",              # duplicate n
    "n 2\na 0\n",              # short arc line
    "n 2\nb 0 1\n",            # unknown directive
    "n two\n",
    "",
])
def test_parse_digraph_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_digraph(text)
