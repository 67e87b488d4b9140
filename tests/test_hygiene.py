"""Static checks over the package source, written with the standard library."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mixedvalue"
MODULES = sorted(PACKAGE.glob("*.py"))


def _names_in(node) -> set:
    """Names loaded anywhere under node, string annotations included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        annotations = []
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = sub.args
            annotations = [a.annotation for a in (*args.posonlyargs, *args.args,
                                                  *args.kwonlyargs, args.vararg, args.kwarg)
                           if a is not None] + [sub.returns]
        elif isinstance(sub, ast.AnnAssign):
            annotations = [sub.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _names_in(ast.parse(ann.value, mode="eval"))
    return names


def unused_imports(source: str) -> list:
    """Module-level imports whose bound name is neither used nor in __all__."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    used = _names_in(tree) | exported
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "import xml.dom\n"
        "from . import problem as problem_mod, pde\n"
        "from .hamiltonian import payoff_matrix as h_matrix, HamiltonianPoint\n"
        "from .games import GameError\n"
        "__all__ = ['GameError']\n"
        "def f(x: 'HamiltonianPoint') -> None:\n"
        "    return np.sum(x) + pde.solve(sys.argv)\n"
    )
    assert unused_imports(source) == ["h_matrix (line 6)", "os (line 2)",
                                      "problem_mod (line 5)", "xml (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
