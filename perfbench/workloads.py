"""The three benchmark workloads: inputs, verdicts and reference checks.

Each workload has three parts:

* `setup(sc, seed, size)` builds the batch of instances with the
  package's own generators and text serializer (this is what `setup_s`
  times);
* `verdict(sc, tr, inst)` runs one instance through the public functions
  of the layers, every call wrapped in a span, and returns a record;
* `check(sc, insts, records)` compares every record with an independent
  reference and returns one `Outcome` per record.

A failed outcome is a verdict that raised, came back uncertified, or
disagreed with its reference.  It is *wrong* as well unless the only
disagreement is a reduction gadget reaching its threshold with a verified
witness while the source-problem oracle says no: then the solver's answer
is right and the gadget is not (criterion 5).  Failures are counted, never
filtered.

`sc` is the imported `steinercycles` package and `tr` a `spans.Tracer`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# The corpora are the acceptance suite's (harness seed 1729), so corpus
# verdicts, their 17 Eulerian divergences and the criterion-8 reference
# values stay the same for every benchmark seed.  Redrawing them per seed
# would move the planarity cost alone by a factor of two between seeds.
# The benchmark seed draws refute's terminal sets and the order of every
# input's arcs.  Instances run in a fixed order: a short verdict runs up
# to 20% slower right after a long one, so a seeded order would move the
# percentiles between seeds.
CORPUS_SEED = 1729


@dataclass(frozen=True)
class Outcome:
    failed: bool
    wrong: bool
    detail: str = ""


OK = Outcome(False, False)


def _wrong(detail):
    return Outcome(True, True, detail)


def shuffled_arcs(sc, d, rng):
    """d with its arc instances listed in a seeded order.

    This changes the input text and the instance order but not the work:
    search-node counts match on every seed.  The checks catch any answer
    that depends on the order.
    """
    arcs = list(d.arcs)
    rng.shuffle(arcs)
    return sc.build_digraph(d.vertex_count, arcs)


def witness_holds(sc, tr, packing, host, terminals, size) -> bool:
    """True when `packing` backs a claim of `size` cycles: at least that
    many, in this very host, for exactly these terminals, and valid.

    `verify_packing` alone checks only that a packing is valid in its own
    host, which an empty or foreign packing also is.
    """
    return (packing is not None and packing.host is host
            and packing.terminals == frozenset(terminals)
            and len(packing.cycles) >= size
            and tr.call("packing.verify", sc.verify_packing, packing))


def reference_value(sc, spec: str, k: int) -> int:
    """Closed-form packing number, except for complete:6 with k = 4.

    There the table says 4, but a verified 5-packing meets the semi-degree
    bound of 5, so 5 is the value (acceptance criterion 1).
    """
    if spec == "complete:6" and k == 4:
        return 5
    return sc.family_value(spec, k)


# ---------------------------------------------------------------------------
# refute: a few long exhaustive searches on dense bidirected digraphs.
# ---------------------------------------------------------------------------

# Terminal-set pools.  Within a pool every set costs the same number of
# search nodes (to 0.2%), so the seed changes the inputs but not the work.
_REFUTE_FULL = (
    ("complete:6", ((0, 1, 3, 4, 5), (0, 2, 3, 4, 5), (1, 2, 3, 4, 5)), 5),
    ("complete:6", ((0, 1, 2, 3, 4, 5),), 5),
    ("complete:7", ((0, 4, 5, 6), (1, 4, 5, 6), (2, 4, 5, 6), (3, 4, 5, 6)), None),
    ("multipartite:2x3", ((0, 1, 4, 5), (0, 2, 4, 5), (0, 3, 4, 5),
                          (1, 2, 4, 5), (1, 3, 4, 5)), None),
)
_REFUTE_SMOKE = (
    ("complete:4", ((0, 1, 2, 3),), 3),
    ("complete:5", ((0, 1, 2), (1, 2, 3)), None),
    ("multipartite:2x2", ((0, 1, 2), (1, 2, 3)), None),
)


def refute_setup(sc, seed, size):
    """(id, spec, digraph text, terminals, size) per instance; size None
    asks for the maximum, an integer asks whether that many cycles pack."""
    rng = random.Random(seed)
    rows = _REFUTE_FULL if size == "full" else _REFUTE_SMOKE
    out = []
    for idx, (spec, pool, target) in enumerate(rows):
        text = sc.serialize_digraph(shuffled_arcs(sc, sc.make_family(spec), rng))
        terminals = rng.choice(pool)
        out.append((f"refute-{idx}", spec, text, terminals, target))
    return out


def refute_verdict(sc, tr, inst):
    _, _, text, terminals, size = inst
    d = tr.call("digraph.parse", sc.parse_digraph, text)
    if size is None:
        res = tr.call("packing.solve", sc.max_cycle_packing, d, terminals)
        value, packing = res.value, res.packing
    else:
        res = tr.call("packing.solve", sc.packing_exists, d, terminals, size)
        value, packing = (size if res.exists else 0), res.packing
    tr.count("packing.nodes", res.nodes)
    verified = value > 0 and witness_holds(sc, tr, packing, d, terminals, value)
    return {"value": value, "certified": res.certified, "verified": verified,
            "nodes": res.nodes}


def refute_check(sc, insts, records):
    out = []
    for (_, spec, _, terminals, size), rec in zip(insts, records):
        want = reference_value(sc, spec, len(terminals))
        if size is not None:
            want = size if want >= size else 0
        if not rec["certified"]:
            out.append(_wrong("uncertified"))
        elif rec["value"] != want:
            out.append(_wrong(f"value {rec['value']}, reference {want}"))
        elif rec["value"] and not rec["verified"]:
            out.append(_wrong("witness does not verify"))
        else:
            out.append(OK)
    return out


# ---------------------------------------------------------------------------
# sweep: lambda-k tables and Hamiltonian decompositions.
# ---------------------------------------------------------------------------

_SWEEP_FAMILIES_FULL = (
    ("complete:5", None), ("complete:6", 4), ("complete:7", 3),
    ("bipartite:3,4", None), ("bipartite:3,5", None),
    ("multipartite:2x3", None),
)
_SWEEP_DECOMPOSE_FULL = ("complete:4", "complete:6", "complete:13",
                         "complete:17", "multipartite:3x5", "multipartite:2x7")
_SWEEP_FAMILIES_SMOKE = (("complete:4", None), ("bipartite:2,3", None))
_SWEEP_DECOMPOSE_SMOKE = ("complete:4", "complete:5")
_SWEEP_RANDOM = {"full": 300, "smoke": 12}


def sweep_setup(sc, seed, size):
    """Family tables and the criterion-8 random digraphs as text with
    seeded arc order, and the decomposition inputs."""
    from steinercycles.harness import random_digraph

    full = size == "full"
    rng = random.Random(seed)
    out = []
    for spec, k_max in (_SWEEP_FAMILIES_FULL if full else _SWEEP_FAMILIES_SMOKE):
        d = sc.make_family(spec)
        ks = tuple(range(2, (k_max or d.vertex_count) + 1))
        text = sc.serialize_digraph(shuffled_arcs(sc, d, rng))
        out.append((f"sweep-{spec}", "table", text, ks, spec))
    gen = random.Random(CORPUS_SEED)
    for idx in range(_SWEEP_RANDOM[size]):
        d = random_digraph(gen)
        text = sc.serialize_digraph(shuffled_arcs(sc, d, rng))
        ks = tuple(range(2, d.vertex_count + 1))
        out.append((f"sweep-random-{idx:03d}", "table", text, ks,
                    (idx, d.vertex_count, d.arcs)))
    for spec in (_SWEEP_DECOMPOSE_FULL if full else _SWEEP_DECOMPOSE_SMOKE):
        out.append((f"sweep-decompose-{spec}", "decompose", spec))
    return out


def sweep_verdict(sc, tr, inst):
    if inst[1] == "decompose":
        d = tr.call("families.make", sc.make_family, inst[2])
        res = tr.call("families.decompose", sc.hamiltonian_decomposition, d)
        tr.count("families.decompose.nodes", res.nodes)
        valid = res.certificate is not None and \
            tr.call("families.verify", res.certificate.is_valid)
        return {"status": res.status, "valid": valid, "nodes": res.nodes}
    _, _, text, ks, _ = inst
    d = tr.call("digraph.parse", sc.parse_digraph, text)
    values, certified, verified, nodes = [], True, True, 0
    for k in ks:
        res = tr.call("packing.solve", sc.min_packing_number, d, k)
        nodes += res.nodes
        values.append(res.value)
        certified = certified and res.certified
        if res.value:
            verified = (res.witness_set is not None
                        and len(res.witness_set) == k
                        and witness_holds(sc, tr, res.witness, d,
                                          res.witness_set, res.value)
                        and verified)
    tr.count("packing.nodes", nodes)
    return {"values": values, "certified": certified, "verified": verified,
            "nodes": nodes}


def _semi_degree(n, arcs):
    out = [0] * n
    inn = [0] * n
    for (u, v) in arcs:
        out[u] += 1
        inn[v] += 1
    return min(min(a, b) for a, b in zip(out, inn)) if n else 0


def sweep_check(sc, insts, records):
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))["random_digraphs"]
    out = []
    for inst, rec in zip(insts, records):
        if inst[1] == "decompose":
            spec = inst[2]
            # Complete digraphs decompose into Hamiltonian cycles exactly
            # when n is not 4 or 6; the multipartite inputs all decompose.
            want = "exhausted" if spec in ("complete:4", "complete:6") else "decomposed"
            if rec["status"] != want:
                out.append(_wrong(f"status {rec['status']}, reference {want}"))
            elif want == "decomposed" and not rec["valid"]:
                out.append(_wrong("decomposition certificate is invalid"))
            else:
                out.append(OK)
            continue
        _, _, _, ks, source = inst
        values = rec["values"]
        if isinstance(source, str):
            want = [reference_value(sc, source, k) for k in ks]
        else:
            idx, n, arcs = source
            entry = ref[idx]
            if entry["n"] != n or [tuple(a) for a in entry["arcs"]] != list(arcs):
                out.append(_wrong("random digraph differs from the reference"))
                continue
            want = entry["values"]
            bound = _semi_degree(n, arcs)
            if any(v > bound for v in values) or \
                    any(b > a for a, b in zip(values, values[1:])):
                out.append(_wrong(f"values {values} break the semi-degree "
                                  f"bound {bound} or monotonicity"))
                continue
        if not rec["certified"]:
            out.append(_wrong("uncertified"))
        elif values != want:
            out.append(_wrong(f"values {values}, reference {want}"))
        elif not rec["verified"]:
            out.append(_wrong("witness does not verify"))
        else:
            out.append(OK)
    return out


# ---------------------------------------------------------------------------
# corpus: the four seeded reduction corpora.
# ---------------------------------------------------------------------------

_CORPUS_COUNTS = {
    "full": {"replacement": 200, "eulerian": 100, "planar": 50, "symmetric": 100},
    "smoke": {"replacement": 6, "eulerian": 6, "planar": 3, "symmetric": 6},
}


def corpus_setup(sc, seed, size):
    """Source instances of the four corpora, digraph arcs in seeded order."""
    from steinercycles import harness

    rng = random.Random(seed)
    counts = _CORPUS_COUNTS[size]
    out = []
    for iid, g, copies, _ in harness.replacement_instances(
            counts["replacement"], CORPUS_SEED):
        out.append((iid, "replacement", g, copies))
    for iid, inst, _ in harness.eulerian_instances(counts["eulerian"], CORPUS_SEED):
        out.append((iid, "eulerian", replace(
            inst, digraph=shuffled_arcs(sc, inst.digraph, rng))))
    for iid, inst, _ in harness.planar_instances(counts["planar"], CORPUS_SEED):
        out.append((iid, "planar", replace(
            inst, digraph=shuffled_arcs(sc, inst.digraph, rng))))
    for iid, d, terminals in harness.symmetric_instances(
            counts["symmetric"], CORPUS_SEED):
        out.append((iid, "symmetric", shuffled_arcs(sc, d, rng), terminals))
    return out


def corpus_verdict(sc, tr, inst):
    kind = inst[1]
    rec = {}
    if kind == "symmetric":
        _, _, d, terminals = inst
        oracle = tr.call("oracles.symmetric", sc.symmetric_two_packing_decision,
                         d, terminals)
        host, threshold = d, 2
    else:
        if kind == "replacement":
            _, _, g, copies = inst
            gadget = tr.call("gadgets.build", sc.replacement_gadget, g, copies)
            oracle = tr.call("oracles.hamiltonian", sc.hamiltonian_cycle, g).decision
        elif kind == "eulerian":
            src = inst[2]
            gadget = tr.call("gadgets.build", sc.eulerian_gadget, src, 3)
            oracle = tr.call("oracles.linkage", sc.weak_two_linkage, src.digraph,
                             src.s1, src.t1, src.s2, src.t2).decision
        else:
            src = inst[2]
            gadget = tr.call("gadgets.build", sc.planar_gadget, src, 2)
            oracle = tr.call("oracles.demand", sc.arc_disjoint_demand_paths,
                             src.digraph, src.s1, src.t1, src.d1,
                             src.s2, src.t2, src.d2).decision
        tr.count("gadgets.out_arcs", len(gadget.digraph.arcs))
        host, terminals, threshold = gadget.digraph, gadget.terminals, gadget.threshold
    res = tr.call("packing.solve", sc.packing_exists, host, terminals, threshold)
    tr.count("packing.nodes", res.nodes)
    verified = res.exists and witness_holds(sc, tr, res.packing, host,
                                            terminals, threshold)
    if kind == "planar":
        rec["planar"] = tr.call("digraph.planarity", sc.is_planar, host)
        rec["host"] = host
    rec.update(oracle=oracle, exists=res.exists, certified=res.certified,
               verified=verified, nodes=res.nodes)
    return rec


def corpus_check(sc, insts, records):
    import networkx as nx

    planar_ref = {}
    out = []
    for inst, rec in zip(insts, records):
        if not rec["certified"]:
            out.append(_wrong("uncertified"))
            continue
        if rec["exists"] and not rec["verified"]:
            out.append(_wrong("witness does not verify"))
            continue
        if "planar" in rec:
            host = rec["host"]
            if host.arcs not in planar_ref:
                g = nx.Graph()
                g.add_nodes_from(range(host.vertex_count))
                g.add_edges_from((u, v) for (u, v) in host.arcs)
                planar_ref[host.arcs] = nx.check_planarity(g)[0]
            want = planar_ref[host.arcs]
            if rec["planar"] != want:
                out.append(_wrong(f"is_planar {rec['planar']}, networkx {want}"))
                continue
            if not want:
                out.append(Outcome(True, False, "planar gadget output is not planar"))
                continue
        if rec["oracle"] == rec["exists"]:
            out.append(OK)
        elif rec["exists"]:
            # The solver's yes carries a verified witness, so the gadget is
            # what disagrees with the oracle.
            out.append(Outcome(True, False, "oracle no, gadget packs"))
        else:
            out.append(_wrong("oracle yes, solver no"))
    return out


WORKLOADS = {
    "refute": (refute_setup, refute_verdict, refute_check),
    "sweep": (sweep_setup, sweep_verdict, sweep_check),
    "corpus": (corpus_setup, corpus_verdict, corpus_check),
}
