"""Every entry point refuses a count, size or vertex that is not an integer.

Each row below puts a value x into one argument of one entry point.  A
value that is not an integer (a float, even 1.0, or a digit string) must
raise ValueError naming "integer": truncating it would answer for an input
nobody gave.  True is an integer, and must act exactly as 1 does.
"""

import dataclasses

import pytest

from steinercycles import (
    FamilySpec,
    FlowNetwork,
    Graph,
    LinkageInstance,
    MultiDigraph,
    arc_disjoint_demand_paths,
    bipartite_value,
    build_digraph,
    build_graph,
    complete_value,
    enumerate_steiner_cycles,
    eulerian_gadget,
    family_value,
    hamiltonian_decomposition,
    lambda_table,
    make_family,
    max_cycle_packing,
    min_packing_number,
    multipartite_value,
    packing_exists,
    planar_gadget,
    replacement_gadget,
    small_complete_packing,
    subdivide_arc,
    validate_cycle,
    validate_terminals,
    weak_two_linkage,
)
from steinercycles import harness

K4 = make_family("complete:4")
PAIRS = build_digraph(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
LINK = LinkageInstance(PAIRS, 0, 1, 2, 3, 1, 1)
ARC = build_digraph(2, [(0, 1)])
PATH = build_graph(3, [(0, 1), (1, 2)])
SPEC = FamilySpec.complete(4)

ROWS = [
    # the one door: counts and endpoints
    ("build_digraph-count", lambda x: build_digraph(x, []), 3.5),
    ("build_digraph-tail",
     lambda x: build_digraph(3, [(x, 1), (1, 2), (2, 0)]), 0.9),
    ("build_digraph-head",
     lambda x: build_digraph(3, [(0, 1), (1, x), (2, 0)]), 2.7),
    ("build_digraph-string", lambda x: build_digraph(3, [(x, 2)]), "0"),
    ("build_graph-count", lambda x: build_graph(x, []), 3.5),
    ("build_graph-endpoint", lambda x: build_graph(3, [(x, 2)]), 0.5),
    ("subdivide_arc", lambda x: subdivide_arc(K4, (x, 2)), 0.5),
    # vertex lists
    ("validate_terminals", lambda x: validate_terminals(K4, [0, x]), 1.0),
    ("validate_cycle", lambda x: validate_cycle(K4, (0, x, 0)), 1.5),
    ("FlowNetwork-sources", lambda x: FlowNetwork(ARC, {x}, {1}, (1,)), 0.5),
    ("FlowNetwork-sinks", lambda x: FlowNetwork(ARC, {0}, {x}, (1,)), 1.5),
    ("small_complete_packing-terminals",
     lambda x: small_complete_packing(6, [0, x]), 1.7),
    ("LinkageInstance-terminal",
     lambda x: LinkageInstance(PAIRS, 0, x, 2, 3), 0.5),
    ("weak_two_linkage", lambda x: weak_two_linkage(PAIRS, 0, x, 2, 3), 0.5),
    ("arc_disjoint_demand_paths-terminal",
     lambda x: arc_disjoint_demand_paths(PAIRS, 0, 1, 1, 2, x, 1), 3.0),
    # counts and sizes
    ("FlowNetwork-flow", lambda x: FlowNetwork(ARC, {0}, {1}, (x,)), 1.9),
    ("LinkageInstance-demand",
     lambda x: LinkageInstance(PAIRS, 0, 1, 2, 3, d1=x, d2=1), 1.5),
    ("arc_disjoint_demand_paths-demand",
     lambda x: arc_disjoint_demand_paths(PAIRS, 0, 1, x, 2, 3, 1), 1.5),
    ("small_complete_packing-n",
     lambda x: small_complete_packing(x, [0, 1]), 4.0),
    ("FamilySpec.complete", lambda x: FamilySpec.complete(x), 6.7),
    ("FamilySpec.bipartite", lambda x: FamilySpec.bipartite(x, 3), 2.5),
    ("FamilySpec.multipartite", lambda x: FamilySpec.multipartite(2, x), 1.5),
    ("complete_value-n", lambda x: complete_value(x, 2), 6.5),
    ("complete_value-k", lambda x: complete_value(6, x), 2.5),
    ("bipartite_value", lambda x: bipartite_value(2, 3, x), 2.5),
    ("multipartite_value", lambda x: multipartite_value(x, 2, 2), 2.5),
    ("family_value", lambda x: family_value(SPEC, x), 2.5),
    ("lambda_table", lambda x: lambda_table(SPEC, ks=[x]), 2.5),
    ("min_packing_number", lambda x: min_packing_number(K4, x), 2.5),
    ("packing_exists", lambda x: packing_exists(K4, {0, 1}, x), 1.5),
    ("node_budget",
     lambda x: max_cycle_packing(K4, {0, 1}, node_budget=x), 2.5),
    ("hamiltonian_decomposition-budget",
     lambda x: hamiltonian_decomposition(K4, node_budget=x), 2.5),
    ("enumerate_steiner_cycles-cap",
     lambda x: enumerate_steiner_cycles(K4, {0, 1}, cap=x), 1.5),
    ("eulerian_gadget", lambda x: eulerian_gadget(LINK, x), 3.5),
    ("planar_gadget", lambda x: planar_gadget(LINK, x), 2.5),
    ("replacement_gadget", lambda x: replacement_gadget(PATH, x), 1.5),
    # corpus counts, checked before any instance is drawn
    ("replacement_instances", harness.replacement_instances, 2.5),
    ("eulerian_instances", harness.eulerian_instances, 1.5),
    ("planar_instances", harness.planar_instances, 2.5),
    ("symmetric_instances", harness.symmetric_instances, 1.5),
    ("run_replacement", harness.run_replacement, 2.5),
    ("run_eulerian", harness.run_eulerian, 1.5),
    ("run_planar", harness.run_planar, 2.5),
    ("run_symmetric", harness.run_symmetric, 1.5),
]


def _shape(obj):
    """obj as nested tuples that tell True from 1 and 1.0."""
    if isinstance(obj, MultiDigraph):
        obj = ("digraph", obj.vertex_count, obj.arcs)
    elif isinstance(obj, Graph):
        obj = ("graph", obj.vertex_count, obj.edges)
    elif dataclasses.is_dataclass(obj):
        obj = (type(obj).__name__,) + tuple(
            getattr(obj, f.name) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        obj = sorted(obj.items())
    if isinstance(obj, (set, frozenset)):
        obj = sorted(obj)
    if isinstance(obj, (tuple, list)):
        return tuple(_shape(x) for x in obj)
    return (type(obj).__name__, obj)


def _outcome(call, x):
    try:
        return _shape(call(x))
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("call, bad", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_non_integers_are_refused_and_true_is_one(call, bad):
    with pytest.raises(ValueError, match="integer"):
        call(bad)
    assert _outcome(call, True) == _outcome(call, 1)


@pytest.mark.parametrize("run", harness.FAMILIES.values(),
                         ids=harness.FAMILIES.keys())
def test_a_corpus_run_checks_its_budget_before_its_count(run):
    with pytest.raises(ValueError, match="node budget"):
        run(2.5, node_budget=-1)
    with pytest.raises(ValueError, match="count must be nonnegative"):
        run(-1)


def test_a_float_ring_is_no_ring():
    # Truncated, these arcs would be the ring 0 -> 1 -> 2 -> 0, whose
    # packing number is 1.
    with pytest.raises(ValueError, match="integer"):
        build_digraph(3, [(0.9, 1), (1, 2.7), (2, 0)])
