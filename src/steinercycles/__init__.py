"""Exact arc-disjoint Steiner cycle packing in small digraphs.

A Steiner cycle for a terminal set S is a simple directed cycle through
every vertex of S.  This package computes the maximum number of pairwise
arc-disjoint Steiner cycles in a multidigraph, and the minimum of that
value over all terminal sets of a given size, exactly and with witnesses.

Around the solver sit closed-form values and Hamiltonian-decomposition
certificates for complete, complete bipartite, and balanced multipartite
digraphs; constructors for the three reduction gadgets that make the
general problem hard (weak 2-linkage, planar demand pairs, undirected
Hamiltonicity); brute-force oracles for those source problems; a
flow-decomposition routine; and a seeded harness checking that each gadget
agrees with its oracle.  The `steinercycles` command line exposes all of
it on text files.
"""

from .digraph import (
    Graph,
    MultiDigraph,
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
from .families import (
    DecompositionCertificate,
    DecompositionResult,
    FamilySpec,
    bipartite_value,
    complete_value,
    family_value,
    hamiltonian_decomposition,
    lambda_table,
    make_family,
    multipartite_value,
    small_complete_packing,
)
from .flows import (
    FlowDecomposition,
    FlowNetwork,
    FlowTerm,
    flow_decompose,
    parse_network,
)
from .gadgets import (
    GadgetOutput,
    LinkageInstance,
    eulerian_gadget,
    planar_gadget,
    replacement_gadget,
    serialize_gadget,
)
from .oracles import (
    OracleAnswer,
    arc_disjoint_demand_paths,
    hamiltonian_cycle,
    symmetric_two_packing_decision,
    weak_two_linkage,
)
from .packing import (
    CyclePacking,
    ExistenceResult,
    MinPackingResult,
    PackingResult,
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

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "MultiDigraph",
    "build_digraph",
    "build_graph",
    "graph_is_planar",
    "is_eulerian",
    "is_planar",
    "is_symmetric",
    "min_semi_degree",
    "parse_digraph",
    "serialize_digraph",
    "subdivide_arc",
    "underlying_graph",
    "validate_terminals",
    "DecompositionCertificate",
    "DecompositionResult",
    "FamilySpec",
    "bipartite_value",
    "complete_value",
    "family_value",
    "hamiltonian_decomposition",
    "lambda_table",
    "make_family",
    "multipartite_value",
    "small_complete_packing",
    "FlowDecomposition",
    "FlowNetwork",
    "FlowTerm",
    "flow_decompose",
    "parse_network",
    "GadgetOutput",
    "LinkageInstance",
    "eulerian_gadget",
    "planar_gadget",
    "replacement_gadget",
    "serialize_gadget",
    "OracleAnswer",
    "arc_disjoint_demand_paths",
    "hamiltonian_cycle",
    "symmetric_two_packing_decision",
    "weak_two_linkage",
    "CyclePacking",
    "ExistenceResult",
    "MinPackingResult",
    "PackingResult",
    "canonical_cycle",
    "enumerate_steiner_cycles",
    "max_cycle_packing",
    "min_packing_number",
    "packing_exists",
    "parse_witness",
    "reverse_cycle",
    "serialize_witness",
    "validate_cycle",
    "verify_packing",
]
