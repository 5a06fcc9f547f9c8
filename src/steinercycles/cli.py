"""Command line front end.

Subcommands: solve, lambda-k, formula, gadget, decompose, flow-decompose,
verify, harness.  Inputs use the digraph text format (`n <count>` then
`a <tail> <head>` lines); witnesses use the witness format (`lambda <v>`
then `cycle:` lines); networks add per-arc flow plus `source`/`sink`
lines.  All output is deterministic: identical inputs, flags, and seed
give byte-identical reports (diagnostics go to stderr).

Exit codes: 0 success, certified answer, or full agreement; 1 verified
disagreement or invalid witness; 2 usage or parse error, or an instance
too large for this machine's memory; 3 node budget exhausted (never
reported as a certified optimum); 4 internal failure, a bug (no answer
is given).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .digraph import parse_digraph, underlying_graph, validate_terminals
from .families import BUDGET, FamilySpec, hamiltonian_decomposition, lambda_table
from .flows import flow_decompose, parse_network
from .gadgets import LinkageInstance, eulerian_gadget, planar_gadget, \
    replacement_gadget, serialize_gadget
from .harness import DEFAULT_SEED, FAMILIES
from .packing import CyclePacking, max_cycle_packing, min_packing_number, \
    parse_witness, serialize_witness, verify_packing


def _parse_terminals(text: str, roles: bool = False) -> list:
    """Comma-separated vertex list: a terminal set, duplicates rejected and
    result sorted, or with `roles` the ordered s1,t1,s2,t2."""
    try:
        values = [int(p) for p in text.split(",")]
    except ValueError:
        what = "roles" if roles else "list"
        raise ValueError(f"bad terminal {what} {text!r}") from None
    if roles:
        if len(values) != 4:
            raise ValueError(f"expected exactly s1,t1,s2,t2, got {text!r}")
        return values
    if len(set(values)) != len(values):
        raise ValueError(f"duplicate terminal in {text!r}")
    return sorted(values)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _cmd_solve(args) -> int:
    d = parse_digraph(_read(args.graph))
    res = max_cycle_packing(d, _parse_terminals(args.S),
                            node_budget=args.budget)
    sys.stdout.write(serialize_witness(res.value, res.packing.cycles))
    if not res.certified:
        _note("node budget exhausted: reported value is only a lower bound")
        return 3
    return 0


def _cmd_lambda_k(args) -> int:
    d = parse_digraph(_read(args.graph))
    res = min_packing_number(d, args.k, node_budget=args.budget)
    print(f"k {args.k}")
    print("S: " + ",".join(str(v) for v in sorted(res.witness_set)))
    sys.stdout.write(serialize_witness(res.value, res.witness.cycles))
    if not res.certified:
        _note("node budget exhausted: reported value is not certified")
        return 3
    return 0


def _cmd_formula(args) -> int:
    spec = FamilySpec.parse(args.family)
    ks = [args.k] if args.k is not None else None
    table = lambda_table(spec, ks)
    for k in sorted(table):
        print(f"{k}\t{table[k]}")
    return 0


def _cmd_gadget(args) -> int:
    d = parse_digraph(_read(args.graph))
    if args.kind == "replacement":
        if args.ell is None:
            raise ValueError("gadget replacement needs --ell")
        out = replacement_gadget(underlying_graph(d), args.ell)
    elif args.kind == "eulerian":
        if args.terminals is None:
            raise ValueError("gadget eulerian needs --terminals s1,t1,s2,t2")
        s1, t1, s2, t2 = _parse_terminals(args.terminals, roles=True)
        out = eulerian_gadget(LinkageInstance(d, s1, t1, s2, t2),
                              args.k if args.k is not None else 3)
    else:
        if args.terminals is None:
            raise ValueError("gadget planar needs --terminals s1,t1,s2,t2")
        if args.d1 is None or args.d2 is None:
            raise ValueError("gadget planar needs --d1 and --d2")
        s1, t1, s2, t2 = _parse_terminals(args.terminals, roles=True)
        out = planar_gadget(LinkageInstance(d, s1, t1, s2, t2, args.d1, args.d2),
                            args.k if args.k is not None else 2)
    sys.stdout.write(serialize_gadget(out))
    return 0


def _cmd_decompose(args) -> int:
    d = parse_digraph(_read(args.graph))
    res = hamiltonian_decomposition(d, node_budget=args.budget)
    print(f"status: {res.status}")
    if res.certificate is not None:
        for seq in res.certificate.cycles:
            print("cycle: " + " ".join(str(v) for v in seq))
    if res.status == BUDGET:
        _note("node budget exhausted: existence of a decomposition is open")
        return 3
    return 0


def _cmd_flow_decompose(args) -> int:
    net = parse_network(_read(args.network))
    dec = flow_decompose(net)
    d = net.digraph
    for term in dec.path_terms:
        print(f"path {term.weight}: "
              + " ".join(str(v) for v in term.vertices(d)))
    for term in dec.cycle_terms:
        print(f"cycle {term.weight}: "
              + " ".join(str(v) for v in term.vertices(d)))
    return 0


def _cmd_verify(args) -> int:
    d = parse_digraph(_read(args.graph))
    value, cycles = parse_witness(_read(args.witness))
    terminals = validate_terminals(d, _parse_terminals(args.S))
    if value != len(cycles):
        print(f"invalid: witness claims {value} cycles but lists {len(cycles)}")
        return 1
    if not verify_packing(CyclePacking(d, terminals, cycles)):
        print("invalid: cycles are not a disjoint Steiner cycle packing of "
              "the digraph")
        return 1
    print(f"valid: lambda {value}, {len(cycles)} cycles")
    return 0


def _cmd_harness(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    rows = FAMILIES[args.family](args.count, seed=args.seed,
                                 node_budget=args.budget)
    for row in rows:
        print(row.line())
    agree = sum(1 for r in rows if r.agree)
    print(f"agreement {agree}/{len(rows)}")
    if any(not r.certified for r in rows):
        _note("node budget exhausted on at least one instance")
        return 3
    return 0 if agree == len(rows) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinercycles",
        description="Arc-disjoint Steiner cycle packing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="maximum packing for one terminal set")
    p.add_argument("--graph", required=True)
    p.add_argument("--S", required=True, metavar="V,V,...")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("lambda-k",
                       help="minimum packing value over all k-sets")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_lambda_k)

    p = sub.add_parser("formula",
                       help="closed-form table for a digraph family")
    p.add_argument("--family", required=True,
                   help="complete:N | bipartite:T,Z | multipartite:WxL")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("gadget", help="emit a reduction gadget")
    p.add_argument("kind", choices=("eulerian", "planar", "replacement"))
    p.add_argument("--graph", required=True)
    p.add_argument("--terminals", metavar="s1,t1,s2,t2", default=None)
    p.add_argument("--k", type=int, default=None,
                   help="ring terminals (default 3 for eulerian, 2 for planar)")
    p.add_argument("--d1", type=int, default=None)
    p.add_argument("--d2", type=int, default=None)
    p.add_argument("--ell", type=int, default=None,
                   help="channels per edge (replacement)")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("decompose",
                       help="partition all arcs into Hamiltonian cycles")
    p.add_argument("--graph", required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("flow-decompose",
                       help="split a flow into path and cycle terms")
    p.add_argument("--network", required=True)
    p.set_defaults(func=_cmd_flow_decompose)

    p = sub.add_parser("verify", help="check a witness file against a digraph")
    p.add_argument("--graph", required=True)
    p.add_argument("--witness", required=True)
    p.add_argument("--S", required=True, metavar="V,V,...")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("harness", help="run a reduction-equivalence corpus")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"corpus seed (default {DEFAULT_SEED})")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_harness)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # e.g. a declared vertex count too large for one list entry per vertex
        print("error: instance too large for this machine", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 would read as a verified disagreement, so a crash (a bug)
        # gets its own code.
        reason = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {reason}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
