"""Exact packing of arc-disjoint Steiner cycles.

A Steiner cycle for a terminal set S is a simple directed cycle visiting
every vertex of S; the minimal case is a 2-cycle (u, v, u).  Cycles are
plain vertex tuples whose first and last entries coincide, written in
canonical form: rotated so the smallest terminal comes first.  A packing is
arc-disjoint when, for every ordered pair, the number of cycles using that
pair does not exceed its multiplicity in the host.

The solver is a branch-and-bound over canonical cycles.  Packings are
explored as lexicographically sorted multisets (repeats are only possible
when parallel arcs supply capacity), pruned by the terminal degree bound:
every further cycle consumes one outgoing and one incoming arc instance at
every terminal, so at most min over terminals of min(residual out, residual
in) cycles can still be added.  A search that reaches that bound from the
start is optimal outright.

Before searching, the instance is reduced: non-terminal vertices that miss
incoming or outgoing arcs are deleted, and non-terminal vertices with
exactly one incoming and one outgoing arc are suppressed onto a merged arc
that remembers the hidden vertex chain.  Both steps preserve Steiner cycle
packings exactly (suppression is a bijection on cycles and keeps
arc-disjointness), and witnesses are expanded back to original vertices.

All solver entry points take an optional node budget; results say whether
they are certified (search ran to completion or hit the degree bound) or
were cut short.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from .digraph import MultiDigraph, is_symmetric, validate_terminals
from .search import BudgetHit, Nodes


@dataclass(frozen=True)
class CyclePacking:
    """A family of Steiner cycles in `host` for `terminals`."""

    host: MultiDigraph
    terminals: frozenset
    cycles: tuple

    def __len__(self):
        return len(self.cycles)


@dataclass(frozen=True)
class PackingResult:
    """Outcome of a maximum-packing search."""

    value: int
    packing: CyclePacking
    certified: bool
    nodes: int


@dataclass(frozen=True)
class ExistenceResult:
    """Outcome of a packing-of-given-size decision."""

    exists: bool
    certified: bool
    packing: CyclePacking | None
    nodes: int


@dataclass(frozen=True)
class MinPackingResult:
    """Minimum packing value over terminal sets of a fixed size."""

    value: int
    witness_set: frozenset
    witness: CyclePacking
    certified: bool
    nodes: int


def cycle_pairs(seq) -> list:
    """Consecutive ordered pairs of a cycle sequence."""
    return [(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]


def canonical_cycle(seq, terminals=None) -> tuple:
    """Rotate a cycle sequence so the smallest terminal (or vertex) is first."""
    body = tuple(seq[:-1]) if seq[0] == seq[-1] else tuple(seq)
    anchor_pool = set(body) & set(terminals) if terminals else set(body)
    anchor = min(anchor_pool)
    i = body.index(anchor)
    rotated = body[i:] + body[:i]
    return rotated + (rotated[0],)


def validate_cycle(d: MultiDigraph, seq) -> None:
    """Raise ValueError unless seq is a simple directed cycle of d."""
    seq = tuple(int(v) for v in seq)
    if len(seq) < 3 or seq[0] != seq[-1]:
        raise ValueError("a cycle sequence must close on its first vertex "
                         "and contain at least two arcs")
    body = seq[:-1]
    if len(set(body)) != len(body):
        raise ValueError("cycle revisits a vertex")
    for (u, v) in cycle_pairs(seq):
        if u == v:
            raise ValueError(f"loop step ({u}, {v}) in cycle")
        if not d.has_arc(u, v):
            raise ValueError(f"cycle uses missing arc ({u}, {v})")


def verify_packing(packing: CyclePacking) -> bool:
    """Check that a packing is valid: each cycle is a simple directed cycle
    of the host containing every terminal, and across all cycles no ordered
    pair is used more often than its multiplicity."""
    d = packing.host
    usage = Counter()
    for seq in packing.cycles:
        try:
            validate_cycle(d, seq)
        except ValueError:
            return False
        if not packing.terminals <= set(seq):
            return False
        usage.update(cycle_pairs(seq))
    return all(usage[p] <= d.multiplicity[p] for p in usage)


def reverse_cycle(d: MultiDigraph, seq) -> tuple:
    """Reverse a cycle of a symmetric digraph.

    The reversal of a cycle with at least three arcs is arc-disjoint from
    the original; a 2-cycle reverses to itself.  Raises ValueError when d is
    not symmetric or seq is not a cycle of d.
    """
    if not is_symmetric(d):
        raise ValueError("reverse_cycle requires a symmetric digraph")
    validate_cycle(d, seq)
    return tuple(reversed(tuple(seq)))


# ---------------------------------------------------------------------------
# Search internals.
# ---------------------------------------------------------------------------


class _SearchDone(Exception):
    pass


def _reduce_instance(d: MultiDigraph, terminals):
    """Terminal-preserving reduction; see the module docstring.

    Returns (capacity, chains): capacity maps each surviving ordered pair to
    its multiplicity, chains maps it to one via-chain per instance (the
    tuple of suppressed original vertices between tail and head).
    """
    arcs = [(u, v, ()) for (u, v) in d.arcs]
    changed = True
    while changed:
        changed = False
        out_map = defaultdict(list)
        in_map = defaultdict(list)
        for idx, (u, v, _) in enumerate(arcs):
            out_map[u].append(idx)
            in_map[v].append(idx)
        for v in range(d.vertex_count):
            if v in terminals:
                continue
            outs = out_map.get(v, [])
            ins = in_map.get(v, [])
            if not outs and not ins:
                continue
            if not outs or not ins:
                drop = set(outs) | set(ins)
                arcs = [a for i, a in enumerate(arcs) if i not in drop]
                changed = True
                break
            if len(outs) == 1 and len(ins) == 1:
                tail, _, via_in = arcs[ins[0]]
                _, head, via_out = arcs[outs[0]]
                drop = {outs[0], ins[0]}
                arcs = [a for i, a in enumerate(arcs) if i not in drop]
                if tail != head:
                    # a suppression closing a loop means no simple Steiner
                    # cycle can pass through v at all, so v is just dropped
                    arcs.append((tail, head, via_in + (v,) + via_out))
                changed = True
                break
    capacity = Counter()
    chains = defaultdict(list)
    for (u, v, via) in arcs:
        capacity[(u, v)] += 1
        chains[(u, v)].append(via)
    return dict(capacity), dict(chains)


def _enumerate_cycles(s0, terminals, adj, radj, has_cap, lower, nodes):
    """Yield canonical Steiner cycle sequences in lexicographic order.

    Only sequences strictly greater than `lower` are produced when it is
    given.  `has_cap(u, v)` gates which support arcs are usable; the search
    prunes branches from which the remaining terminals or the closing vertex
    are unreachable.
    """
    seq = [s0]
    on_path = {s0}

    def prune_ok(v):
        need = terminals - on_path
        seen_f = set()
        stack = [v]
        found_s0 = False
        while stack:
            x = stack.pop()
            for w in adj.get(x, ()):
                if not has_cap(x, w):
                    continue
                if w == s0:
                    found_s0 = True
                if w in on_path or w in seen_f:
                    continue
                seen_f.add(w)
                stack.append(w)
        if not found_s0:
            return False
        if not need <= seen_f:
            return False
        if need:
            seen_b = set()
            stack = [s0]
            while stack:
                x = stack.pop()
                for w in radj.get(x, ()):
                    if not has_cap(w, x):
                        continue
                    if w in on_path or w in seen_b:
                        continue
                    seen_b.add(w)
                    stack.append(w)
            if not need <= seen_b:
                return False
        return True

    def rec(tight):
        if nodes is not None:
            nodes.step()
        v = seq[-1]
        if not prune_ok(v):
            return
        i = len(seq)
        lo = lower[i] if (tight and lower is not None and i < len(lower)) else None
        for w in adj.get(v, ()):
            if not has_cap(v, w):
                continue
            if lo is not None and w < lo:
                continue
            if w == s0:
                if len(seq) >= 2 and terminals <= on_path:
                    if lo is not None and w == lo:
                        # Equal prefix: the closed sequence is either equal
                        # to `lower` or a proper prefix of it, never greater.
                        continue
                    yield tuple(seq) + (s0,)
            elif w not in on_path:
                seq.append(w)
                on_path.add(w)
                yield from rec(tight and lo is not None and w == lo)
                seq.pop()
                on_path.discard(w)

    yield from rec(lower is not None)


def enumerate_steiner_cycles(d: MultiDigraph, terminals, cap: int | None = None) -> list:
    """All Steiner cycles of d for the terminal set, canonical, lex order.

    Each cycle appears exactly once as a vertex tuple starting and ending at
    the smallest terminal.  With `cap` given, the listing stops after cap
    cycles (the order never changes, so a capped result is a prefix).
    """
    terminals = validate_terminals(d, terminals)
    if cap is not None and cap < 0:
        raise ValueError("cap must be nonnegative")
    s0 = min(terminals)
    adj = {v: d.successors(v) for v in range(d.vertex_count)}
    radj = {v: d.predecessors(v) for v in range(d.vertex_count)}
    out = []
    for seq in _enumerate_cycles(s0, terminals, adj, radj,
                                 lambda u, v: True, None, None):
        if cap is not None and len(out) >= cap:
            break
        out.append(seq)
    return out


def _expand_witness(seqs, chains):
    """Replace merged arcs in reduced cycle sequences by their via-chains."""
    used = Counter()
    out = []
    for seq in seqs:
        orig = [seq[0]]
        for pair in cycle_pairs(seq):
            k = used[pair]
            used[pair] += 1
            orig.extend(chains[pair][k])
            orig.append(pair[1])
        out.append(tuple(orig))
    return tuple(out)


def _solve(d: MultiDigraph, terminals, target, node_budget):
    """Shared branch-and-bound core.

    target=None computes the maximum packing; an integer target stops as
    soon as that many disjoint cycles are found (decision mode).  Returns
    (seqs, certified, nodes, reached_target) with seqs already expanded to
    original vertices.
    """
    terminals = validate_terminals(d, terminals)
    s0 = min(terminals)
    capacity, chains = _reduce_instance(d, terminals)

    support = sorted(capacity)
    adj = defaultdict(list)
    radj = defaultdict(list)
    out_pairs = defaultdict(list)
    in_pairs = defaultdict(list)
    for (u, v) in support:
        adj[u].append(v)
        radj[v].append(u)
        if u in terminals:
            out_pairs[u].append((u, v))
        if v in terminals:
            in_pairs[v].append((u, v))
    adj = {u: tuple(sorted(vs)) for u, vs in adj.items()}
    radj = {v: tuple(sorted(us)) for v, us in radj.items()}

    residual = dict(capacity)

    def term_bound():
        bound = None
        for s in terminals:
            out = sum(residual[p] for p in out_pairs[s])
            inn = sum(residual[p] for p in in_pairs[s])
            m = min(out, inn)
            bound = m if bound is None else min(bound, m)
        return bound

    global_bound = term_bound()
    nodes = Nodes(node_budget)
    best = []
    cur = []
    certified = True
    reached = False

    if global_bound == 0 or (target is not None and target > global_bound):
        # Degree bound settles it without search.
        return _expand_witness(best, chains), True, 0, False

    def has_cap(u, v):
        return residual.get((u, v), 0) > 0

    def take(seq):
        for p in cycle_pairs(seq):
            residual[p] -= 1

    def untake(seq):
        for p in cycle_pairs(seq):
            residual[p] += 1

    def bnb(last):
        nonlocal best, reached
        nodes.step()
        if target is None:
            if len(cur) > len(best):
                best = list(cur)
            if len(best) >= global_bound:
                raise _SearchDone
            if len(cur) + term_bound() <= len(best):
                return
        else:
            if len(cur) >= target:
                best = list(cur)
                reached = True
                raise _SearchDone
            if len(cur) + term_bound() < target:
                return
        if last is not None and all(residual[p] > 0 for p in cycle_pairs(last)):
            take(last)
            cur.append(last)
            bnb(last)
            cur.pop()
            untake(last)
        for seq in _enumerate_cycles(s0, terminals, adj, radj, has_cap, last, nodes):
            take(seq)
            cur.append(seq)
            bnb(seq)
            cur.pop()
            untake(seq)

    try:
        bnb(None)
    except _SearchDone:
        pass
    except BudgetHit:
        certified = False

    return _expand_witness(best, chains), certified, nodes.count, reached


def max_cycle_packing(d: MultiDigraph, terminals,
                      node_budget: int | None = None) -> PackingResult:
    """Maximum number of pairwise arc-disjoint Steiner cycles, with witness.

    The result is certified unless the node budget ran out first, in which
    case `value` is the best packing size found so far (a lower bound).
    """
    terminals = validate_terminals(d, terminals)
    seqs, certified, nodes, _ = _solve(d, terminals, None, node_budget)
    packing = CyclePacking(d, terminals, seqs)
    return PackingResult(len(seqs), packing, certified, nodes)


def packing_exists(d: MultiDigraph, terminals, size: int,
                   node_budget: int | None = None) -> ExistenceResult:
    """Decide whether `size` pairwise arc-disjoint Steiner cycles exist.

    A positive answer always carries a witness packing and is certified; a
    negative answer is certified only when the search exhausted (rather than
    hitting the node budget).
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    terminals = validate_terminals(d, terminals)
    seqs, certified, nodes, reached = _solve(d, terminals, size, node_budget)
    if reached:
        return ExistenceResult(True, True, CyclePacking(d, terminals, seqs),
                               nodes)
    return ExistenceResult(False, certified, None, nodes)


def _colex_subsets(n: int, k: int):
    """Yield the k-subsets of range(n) as ascending tuples in colex order."""
    c = list(range(k))
    while True:
        yield tuple(c)
        i = 0
        while i + 1 < k and c[i] + 1 == c[i + 1]:
            i += 1
        if c[i] + 1 == n:
            return
        c[i] += 1
        c[:i] = range(i)


def _orbit_representatives(d: MultiDigraph, k: int):
    """Yield, in colex order, the k-subsets that meet every twin class of d
    in a prefix of that class.

    {0, .., k-1} comes first and is always one; the twin classes are built
    only when the caller asks for a second subset.
    """
    subsets = _colex_subsets(d.vertex_count, k)
    yield next(subsets)
    prev = None
    for subset in subsets:
        if prev is None:
            prev = {c[i]: c[i - 1] for c in d.twin_classes
                    for i in range(1, len(c))}
        if all(v not in prev or prev[v] in subset for v in subset):
            yield subset


def min_packing_number(d: MultiDigraph, k: int,
                       node_budget: int | None = None) -> MinPackingResult:
    """Minimum over all k-element terminal sets of the maximum packing size.

    Terminal sets are scanned in colexicographic order with an early exit
    once a certified zero appears (no smaller value is possible), and only
    one set per orbit is solved.  The orbits are those of the group
    generated by the transpositions of twins (`MultiDigraph.twin_classes`):
    each such transposition is checked to map the arc multiset onto
    itself, so every set in an orbit has the same packing value.  The set
    solved for an orbit is the one that meets every twin class in a prefix
    of it (its smallest members), which is the colex-first set of the
    orbit.  The colex-first set attaining the minimum is therefore always
    solved, and without a node budget `value`, `witness_set`, `witness` and
    `certified` are those of the scan over every k-subset; only `nodes` can
    be smaller.  A node budget is shared by the sets solved, in scan order.
    """
    n = d.vertex_count
    if not 2 <= k <= n:
        raise ValueError(f"k must be between 2 and {n}, got {k}")
    best = None
    witness_set = None
    witness = None
    certified = True
    total_nodes = 0
    for subset in _orbit_representatives(d, k):
        remaining = None if node_budget is None else node_budget - total_nodes
        if remaining is not None and remaining <= 0:
            certified = False
            break
        res = max_cycle_packing(d, subset, node_budget=remaining)
        total_nodes += res.nodes
        certified = certified and res.certified
        if best is None or res.value < best:
            best = res.value
            witness_set = frozenset(subset)
            witness = res.packing
        if best == 0 and res.certified:
            # A certified zero is already the minimum, whatever the rest say.
            certified = True
            break
    return MinPackingResult(best, witness_set, witness, certified, total_nodes)


# ---------------------------------------------------------------------------
# Witness text format: `lambda <value>` then `cycle: v0 v1 ... v0` per cycle.
# ---------------------------------------------------------------------------


def serialize_witness(value: int, cycles) -> str:
    lines = [f"lambda {value}"]
    for seq in cycles:
        lines.append("cycle: " + " ".join(str(v) for v in seq))
    return "\n".join(lines) + "\n"


def parse_witness(text: str):
    """Parse the witness format.  Returns (value, cycles).  ValueError on
    malformed input."""
    value = None
    cycles = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("lambda"):
            parts = line.split()
            if value is not None or len(parts) != 2:
                raise ValueError(f"line {lineno}: malformed lambda line")
            try:
                value = int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: bad lambda value") from None
        elif line.startswith("cycle:"):
            try:
                seq = tuple(int(tok) for tok in line[len("cycle:"):].split())
            except ValueError:
                raise ValueError(f"line {lineno}: bad cycle vertices") from None
            if len(seq) < 3:
                raise ValueError(f"line {lineno}: cycle too short")
            cycles.append(seq)
        else:
            raise ValueError(f"line {lineno}: unknown witness line {line!r}")
    if value is None:
        raise ValueError("missing lambda line")
    return value, tuple(cycles)
