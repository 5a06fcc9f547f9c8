"""The package is pure standard library: no module imports anything else,
no module imports another's private names, and the oracles share no code
with the solver they check."""

import ast
import sys
from pathlib import Path

import steinercycles

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
    # so they must not reuse its cycle enumeration or any other part of it.
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
