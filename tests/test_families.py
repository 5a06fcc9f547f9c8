import random
from itertools import combinations

import pytest

from steinercycles import (
    CyclePacking,
    FamilySpec,
    bipartite_value,
    complete_value,
    family_value,
    hamiltonian_decomposition,
    lambda_table,
    make_family,
    max_cycle_packing,
    min_packing_number,
    min_semi_degree,
    multipartite_value,
    small_complete_packing,
    verify_packing,
)
from helpers import brute_max_packing


def test_spec_parse_and_label():
    assert FamilySpec.parse("complete:6") == FamilySpec.complete(6)
    assert FamilySpec.parse("bipartite:2,3") == FamilySpec.bipartite(2, 3)
    assert FamilySpec.parse("multipartite:2x3") == FamilySpec.multipartite(2, 3)
    assert FamilySpec.parse("multipartite:2X3").params == (2, 3)
    for text in ("complete:6", "bipartite:2,3", "multipartite:2x3"):
        assert FamilySpec.parse(text).label == text


def test_spec_vertex_count():
    assert FamilySpec.complete(7).vertex_count == 7
    assert FamilySpec.bipartite(2, 3).vertex_count == 5
    assert FamilySpec.multipartite(3, 4).vertex_count == 12


@pytest.mark.parametrize("text", [
    "complete", "complete:x", "bipartite:3", "multipartite:2,3", "ring:4",
])
def test_spec_parse_rejects(text):
    with pytest.raises(ValueError):
        FamilySpec.parse(text)


def test_make_family_complete():
    d = make_family("complete:4")
    assert d.vertex_count == 4
    assert len(d.arcs) == 12
    assert all(d.has_arc(u, v) for u in range(4) for v in range(4) if u != v)


def test_make_family_bipartite():
    d = make_family("bipartite:2,3")
    assert d.vertex_count == 5
    assert len(d.arcs) == 12
    assert not d.has_arc(0, 1) and not d.has_arc(3, 4)
    assert d.has_arc(0, 2) and d.has_arc(4, 1)


def test_make_family_multipartite():
    d = make_family("multipartite:2x3")
    assert d.vertex_count == 6
    # parts {0,1}, {2,3}, {4,5}
    assert not d.has_arc(0, 1) and not d.has_arc(5, 4)
    assert d.has_arc(0, 2) and d.has_arc(5, 0)
    assert min_semi_degree(d) == 4


@pytest.mark.parametrize("text", [
    "complete:1", "complete:0",
    "bipartite:1,3",      # small part below 2
    "bipartite:3,2",      # parts out of order
    "multipartite:2x1",   # single part has no arcs
    "multipartite:0x3",
])
def test_make_family_rejects_degenerate(text):
    with pytest.raises(ValueError):
        make_family(text)


def test_complete_value_table():
    assert complete_value(4, 2) == 3
    assert complete_value(4, 3) == 2
    assert complete_value(4, 4) == 2
    assert complete_value(6, 2) == 5
    assert complete_value(6, 3) == 5
    assert complete_value(6, 4) == 5
    assert complete_value(6, 5) == 4
    assert complete_value(6, 6) == 4
    assert complete_value(7, 3) == 6
    assert all(complete_value(5, k) == 4 for k in range(2, 6))
    with pytest.raises(ValueError):
        complete_value(4, 1)
    with pytest.raises(ValueError):
        complete_value(4, 5)


def test_bipartite_value_table():
    assert bipartite_value(2, 3, 2) == 2
    assert bipartite_value(2, 3, 3) == 0
    assert bipartite_value(2, 4, 2) == 2
    assert bipartite_value(3, 5, 3) == 3
    assert bipartite_value(3, 5, 4) == 0
    # equal parts are regular, handled by the multipartite rule
    assert bipartite_value(3, 3, 4) == 3
    assert bipartite_value(2, 2, 2) == 2
    with pytest.raises(ValueError):
        bipartite_value(1, 3, 2)
    with pytest.raises(ValueError):
        bipartite_value(3, 2, 2)
    with pytest.raises(ValueError):
        bipartite_value(2, 3, 6)


def test_multipartite_value_table():
    assert multipartite_value(2, 3, 2) == 4
    assert multipartite_value(2, 3, 6) == 4
    assert multipartite_value(2, 2, 3) == 2
    assert multipartite_value(3, 3, 5) == 6
    # one-vertex parts collapse to the complete digraph
    assert multipartite_value(1, 5, 3) == 4
    assert multipartite_value(1, 6, 5) == 4
    assert multipartite_value(1, 4, 3) == 2
    assert multipartite_value(4, 1, 2) == 0
    with pytest.raises(ValueError):
        multipartite_value(2, 3, 1)
    with pytest.raises(ValueError):
        multipartite_value(0, 3, 2)


def test_lambda_table_complete_six():
    assert lambda_table("complete:6") == {2: 5, 3: 5, 4: 5, 5: 4, 6: 4}
    assert lambda_table("bipartite:2,3") == {2: 2, 3: 0, 4: 0, 5: 0}
    assert lambda_table("multipartite:2x3") == {k: 4 for k in range(2, 7)}
    assert lambda_table("complete:5", ks=[2, 4]) == {2: 4, 4: 4}


def test_family_value_dispatch():
    assert family_value("complete:7", 3) == complete_value(7, 3)
    assert family_value(FamilySpec.bipartite(2, 3), 2) == 2
    assert family_value("multipartite:2x3", 4) == 4


def test_formula_matches_solver_small_families():
    # every family on at most 5 vertices, exhaustively over k
    specs = ["complete:2", "complete:3", "complete:4", "complete:5",
             "bipartite:2,2", "bipartite:2,3"]
    for text in specs:
        spec = FamilySpec.parse(text)
        d = make_family(spec)
        for k in range(2, spec.vertex_count + 1):
            got = min_packing_number(d, k)
            assert got.certified
            assert got.value == family_value(spec, k), (text, k)


def test_formula_matches_solver_complete_six_except_k4():
    d = make_family("complete:6")
    # all six vertices are twins, so one terminal set is solved per k
    for k in (2, 3, 5, 6):
        got = min_packing_number(d, k)
        assert got.certified
        assert got.value == complete_value(6, k)
        assert got.witness_set == frozenset(range(k))


def test_bipartite_min_packing_scans_every_orbit():
    """Two sides of a complete bipartite digraph are two twin classes, so
    {0..k-1} alone does not settle the minimum: three terminals on the
    three-vertex side of K(2,3) admit no cycle, and a terminal on the
    four-vertex side of K(2,4) has only two out-arcs, where {0, 1} has
    four cycles."""
    d = make_family("bipartite:2,3")
    assert d.twin_classes == ((0, 1), (2, 3, 4))
    got = min_packing_number(d, 3)
    assert got.certified
    assert (got.value, got.witness_set) == (0, frozenset({2, 3, 4}))
    d = make_family("bipartite:2,4")
    got = min_packing_number(d, 2)
    assert got.certified
    assert (got.value, got.witness_set) == (2, frozenset({0, 2}))
    assert verify_packing(got.witness) and len(got.witness) == 2


def test_complete_six_four_terminals_beats_tabulated_value():
    """Four terminals of K6 carry five cycles, the semi-degree bound,
    although K6 has no Hamiltonian decomposition: the table says 5."""
    d = make_family("complete:6")
    res = max_cycle_packing(d, {0, 1, 2, 3})
    assert res.certified
    assert res.value == 5
    assert verify_packing(res.packing)
    assert complete_value(6, 4) == res.value


def test_multipartite_formula_matches_solver():
    d = make_family("multipartite:2x2")
    for k in range(2, 5):
        got = min_packing_number(d, k)
        assert got.certified and got.value == multipartite_value(2, 2, k)


def test_small_packings_match_formula_and_verify():
    rng = random.Random(3)
    for n in (4, 6):
        d = make_family(f"complete:{n}")
        for k in range(2, n + 1):
            for _ in range(4):
                terms = frozenset(rng.sample(range(n), k))
                cycles = small_complete_packing(n, terms)
                assert len(cycles) == complete_value(n, k)
                packing = CyclePacking(d, terms, cycles)
                assert verify_packing(packing)


def test_small_packing_rejects():
    with pytest.raises(ValueError):
        small_complete_packing(5, {0, 1})
    with pytest.raises(ValueError):
        small_complete_packing(4, {0})
    with pytest.raises(ValueError):
        small_complete_packing(4, {0, 4})


def test_small_packing_exact_on_four():
    d = make_family("complete:4")
    for k in (2, 3, 4):
        for terms in combinations(range(4), k):
            cycles = small_complete_packing(4, terms)
            assert len(cycles) == brute_max_packing(d, terms)


def test_decomposition_odd_complete():
    for n in (3, 5, 7):
        d = make_family(f"complete:{n}")
        res = hamiltonian_decomposition(d)
        assert res.status == "decomposed"
        assert len(res.certificate.cycles) == n - 1
        assert res.certificate.is_valid()


def test_decomposition_even_complete_refuted():
    for n in (4, 6):
        res = hamiltonian_decomposition(make_family(f"complete:{n}"))
        assert res.status == "exhausted"
        assert res.certificate is None


def test_decomposition_multipartite():
    res = hamiltonian_decomposition(make_family("multipartite:2x3"))
    assert res.status == "decomposed"
    assert len(res.certificate.cycles) == 4
    assert res.certificate.is_valid()


def test_decomposition_rejects_irregular_quickly():
    from steinercycles import build_digraph
    d = build_digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    res = hamiltonian_decomposition(d)
    assert res.status == "exhausted" and res.nodes == 0


def test_decomposition_budget():
    res = hamiltonian_decomposition(make_family("complete:6"), node_budget=5)
    assert res.status == "budget"
    assert res.certificate is None


def test_decomposition_certificate_rejects_short_cycle():
    from steinercycles import build_digraph
    from steinercycles.families import DecompositionCertificate
    d = build_digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0)])
    good = DecompositionCertificate(d, ((0, 1, 2, 0), (0, 2, 1, 0)))
    assert good.is_valid()
    # misses arcs
    assert not DecompositionCertificate(d, ((0, 1, 2, 0),)).is_valid()
    # 2-cycles are not Hamiltonian here
    bad = DecompositionCertificate(d, ((0, 1, 0), (0, 2, 0), (1, 2, 1)))
    assert not bad.is_valid()
