"""The package is pure standard library: no module imports anything else,
no module imports another's private names, and the oracles share with the
solver they check only `digraph` (parsing, validation, the record
`MultiDigraph.support()` and the one max-flow, which the tests check
against networkx), none of its search.
No function is recursive, so no input is too deep for the interpreter's
recursion limit."""

import ast
import sys
from pathlib import Path

import pytest

import steinercycles
from steinercycles import arc_disjoint_demand_paths, build_digraph, \
    build_graph, hamiltonian_cycle, hamiltonian_decomposition, \
    max_cycle_packing, symmetric_two_packing_decision, weak_two_linkage

PACKAGE = Path(steinercycles.__file__).parent


def test_package_imports_only_stdlib_and_itself():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "steinercycles" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}: {name}")
    assert not foreign, foreign


def test_oracles_import_nothing_from_the_solver():
    # The oracles are the harness's ground truth for the solver's answers,
    # so they must not reuse its cycle enumeration or any other part of
    # `packing`.  They share `digraph` with the solver: parsing, validation,
    # the capacities and masks of `MultiDigraph.support()` and the one
    # max-flow, `capped_flow`, which
    # test_properties::test_cut_flow_matches_networkx checks against networkx.
    path = PACKAGE / "oracles.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert "enumerate_steiner_cycles" not in imported
    assert "packing" not in imported


def test_modules_import_no_private_names_of_each_other():
    # A module's underscore names are its own; another module that needs
    # one should get a public name for it instead.
    private = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("steinercycles")):
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert not private, private


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(node):
    # The nodes of a body, stopping at nested function and class defs.
    todo = list(ast.iter_child_nodes(node))
    while todo:
        child = todo.pop()
        yield child
        if not isinstance(child, _FUNCTIONS + (ast.ClassDef,)):
            todo += ast.iter_child_nodes(child)


def _call_graph(tree):
    # Qualified function name -> the qualified names it calls.  A plain name
    # resolves as Python resolves it: the innermost enclosing function that
    # defines it, then the module (class bodies are skipped); a call through
    # self or cls resolves to a method of the enclosing class.
    graph = {}
    todo = [(tree, "", [], {})]
    while todo:
        node, qual, visible, methods = todo.pop()
        own = list(_own_nodes(node))
        local = {d.name: f"{qual}.{d.name}".lstrip(".") for d in own
                 if isinstance(d, _FUNCTIONS + (ast.ClassDef,))}
        if isinstance(node, _FUNCTIONS):
            calls = graph[qual] = set()
            for call in own:
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if isinstance(f, ast.Name):
                    scope = next((s for s in reversed(visible + [local])
                                  if f.id in s), {})
                    calls.add(scope.get(f.id))
                elif isinstance(f, ast.Attribute) and \
                        isinstance(f.value, ast.Name) and \
                        f.value.id in ("self", "cls"):
                    calls.add(methods.get(f.attr))
        is_class = isinstance(node, ast.ClassDef)
        for d in own:
            if isinstance(d, _FUNCTIONS + (ast.ClassDef,)):
                todo.append((d, f"{qual}.{d.name}".lstrip("."),
                             visible if is_class else visible + [local],
                             local if is_class else methods))
    return graph


def test_no_function_is_recursive():
    # Every search keeps its own stack, so no input is too deep for the
    # interpreter's recursion limit: the call graph among each module's
    # functions has no cycle.
    cycles = []
    for path in sorted(PACKAGE.rglob("*.py")):
        calls = _call_graph(ast.parse(path.read_text(), filename=str(path)))
        for name in calls:
            seen, todo = set(), [name]
            while todo:
                for callee in calls.get(todo.pop(), ()):
                    if callee not in seen and callee in calls:
                        seen.add(callee)
                        todo.append(callee)
            if name in seen:
                cycles.append(f"{path.name}: {name}")
    assert not cycles, cycles


N = 1500
RING = [(v, (v + 1) % N) for v in range(N)]


@pytest.mark.parametrize("search, answer", [
    # branch-and-bound: 1,200 cycles deep
    (lambda: max_cycle_packing(
        build_digraph(2, [(0, 1), (1, 0)] * 1200), [0, 1]).value, 1200),
    # the demand-path search: 800 paths deep
    (lambda: arc_disjoint_demand_paths(
        build_digraph(4, [(0, 1), (2, 3)] * 400), 0, 1, 400, 2, 3, 400)
        .witness, (((0, 1),) * 400, ((2, 3),) * 400)),
    # the decomposition search: one cycle through 1,500 vertices
    (lambda: hamiltonian_decomposition(build_digraph(N, RING))
        .certificate.cycles, (tuple(range(N)) + (0,),)),
    # the oracle path search, as a cycle search and as a path search
    (lambda: hamiltonian_cycle(build_graph(N, RING)).witness,
     tuple(range(N)) + (0,)),
    (lambda: symmetric_two_packing_decision(
        build_digraph(N, RING + [(v, u) for (u, v) in RING]), [0, 500, 1000]),
     True),
    (lambda: weak_two_linkage(build_digraph(N, RING[:-1]),
                              0, N - 3, N - 2, N - 1).witness,
     (tuple(range(N - 2)), (N - 2, N - 1))),
], ids=["packing", "demand-paths", "decomposition", "hamiltonian-cycle",
        "symmetric", "linkage"])
def test_deep_inputs_are_answered(search, answer):
    assert search() == answer
