"""Brute-force reference implementations used to cross-check the package.

Everything here trades speed for obviousness: enumerate, filter, backtrack.
Only suitable for the tiny instances the tests feed it.
"""

from collections import Counter
from itertools import combinations, permutations

import networkx as nx


def brute_steiner_cycles(d, terminals):
    """All simple directed cycles of `d` through every terminal, as
    canonical vertex tuples (closed, rotated to start at the smallest
    vertex)."""
    terminals = frozenset(terminals)
    mult = Counter(d.arcs)
    found = set()
    others = [v for v in range(d.vertex_count) if v not in terminals]
    for extra_size in range(len(others) + 1):
        for extra in combinations(others, extra_size):
            support = sorted(terminals | set(extra))
            if len(support) < 2:
                continue
            first = support[0]
            for rest in permutations(support[1:]):
                seq = (first,) + rest + (first,)
                if all(mult[(u, v)] > 0 for u, v in zip(seq, seq[1:])):
                    found.add(seq)
    return sorted(found)


def pruned_cycle_listing(n, arcs, terminals, lower=None):
    """(cycles, nodes) of a plain depth-first listing of the Steiner cycles
    over the ordered pairs `arcs`, anchored at s0, the smallest terminal,
    above `lower`, in lexicographic order.

    The search extends a path from s0 by each successor in ascending order;
    entering a vertex is one node.  It prunes the path at v unless v or a
    vertex reached from v through vertices off the path has an arc to s0,
    every terminal off the path is so reached, and each of them reaches s0
    through vertices off the path."""
    s0 = min(terminals)
    out = {v: sorted({w for (u, w) in arcs if u == v}) for v in range(n)}
    into = {v: {u for (u, w) in arcs if w == v} for v in range(n)}

    def closure(start, adj, off):
        seen = set(start) & off
        todo = list(seen)
        while todo:
            for x in adj[todo.pop()]:
                if x in off and x not in seen:
                    seen.add(x)
                    todo.append(x)
        return seen

    cycles = []
    nodes = 0

    def visit(path):
        nonlocal nodes
        nodes += 1
        v = path[-1]
        off = set(range(n)) - set(path)
        missing = set(terminals) - set(path)
        ahead = closure(out[v], out, off)
        if not any(s0 in out[x] for x in ahead | {v}) or not missing <= ahead:
            return
        if not missing <= closure(into[s0], into, off):
            return
        for w in out[v]:
            seq = tuple(path) + (w,)
            if lower is not None and seq < lower[:len(seq)]:
                continue
            if w == s0:
                if len(path) >= 2 and not missing and seq != lower:
                    cycles.append(seq)
            elif w not in path:
                visit(path + [w])

    visit([s0])
    return cycles, nodes


def rotate_min(seq):
    """Rotate a closed cycle sequence to start at its smallest vertex."""
    body = seq[:-1]
    i = body.index(min(body))
    rot = body[i:] + body[:i]
    return rot + (rot[0],)


def brute_max_packing(d, terminals):
    """Exact maximum number of arc-disjoint Steiner cycles, by trying every
    multiset of candidate cycles against the arc multiplicities."""
    return multiset_max_packing(d, brute_steiner_cycles(d, terminals))


def multiset_max_packing(d, cycles):
    """Size of the largest multiset of the given cycles that uses no ordered
    pair more often than its multiplicity in d."""
    caps = Counter(d.arcs)
    arcsets = [Counter(zip(seq, seq[1:])) for seq in cycles]
    best = 0

    def rec(i, used, count):
        nonlocal best
        best = max(best, count)
        for j in range(i, len(arcsets)):
            merged = used + arcsets[j]
            if all(merged[a] <= caps[a] for a in arcsets[j]):
                rec(j, merged, count + 1)   # same j again: repeats are legal

    rec(0, Counter(), 0)
    return best


def brute_min_packing(d, k):
    """min over all k-subsets of brute_max_packing."""
    return min(brute_max_packing(d, s)
               for s in combinations(range(d.vertex_count), k))


def _successors(d):
    """Map each vertex to the set of heads of its out-arcs."""
    adj = {v: set() for v in range(d.vertex_count)}
    for (u, v) in d.arcs:
        adj[u].add(v)
    return adj


def simple_paths(d, s, t):
    adj = _successors(d)
    out = []

    def rec(path, seen):
        v = path[-1]
        if v == t:
            out.append(tuple(path))
            return
        for w in adj[v]:
            if w not in seen:
                rec(path + [w], seen | {w})

    rec([s], {s})
    return out


def brute_two_linkage(d, s1, t1, s2, t2):
    """Arc-disjoint s1->t1 and s2->t2 paths exist?  Enumerate the first,
    check reachability in what is left."""
    caps = Counter(d.arcs)
    adj = _successors(d)
    for p1 in simple_paths(d, s1, t1):
        residual = caps - Counter(zip(p1, p1[1:]))
        seen = {s2}
        stack = [s2]
        while stack:
            v = stack.pop()
            if v == t2:
                break
            for w in adj[v]:
                if w not in seen and residual[(v, w)] > 0:
                    seen.add(w)
                    stack.append(w)
        else:
            continue
        return True
    return False


def brute_demand_paths(d, s1, t1, d1, s2, t2, d2):
    """d1 + d2 pairwise arc-disjoint paths (with the right endpoints)
    exist?  Multiset choices over the two simple-path lists."""
    from itertools import combinations_with_replacement as cwr

    caps = Counter(d.arcs)
    p1s = simple_paths(d, s1, t1)
    p2s = simple_paths(d, s2, t2)
    if len(p1s) == 0 and d1 > 0 or len(p2s) == 0 and d2 > 0:
        return False
    for pick1 in cwr(p1s, d1):
        used1 = Counter()
        for p in pick1:
            used1.update(zip(p, p[1:]))
        if any(used1[a] > caps[a] for a in used1):
            continue
        for pick2 in cwr(p2s, d2):
            used = used1.copy()
            for p in pick2:
                used.update(zip(p, p[1:]))
            if all(used[a] <= caps[a] for a in used):
                return True
    return False


def brute_hamiltonian_cycle(g):
    """Does the undirected graph have a Hamiltonian cycle?"""
    n = g.vertex_count
    if n < 3:
        return False
    for perm in permutations(range(1, n)):
        seq = (0,) + perm + (0,)
        if all(g.has_edge(u, v) for u, v in zip(seq, seq[1:])):
            return True
    return False


def nx_digraph(d):
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(d.vertex_count))
    g.add_edges_from(d.arcs)
    return g


def nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges)
    return h
