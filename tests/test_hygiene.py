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


# dsl.py defines the expression evaluator; problem.py is the one place that
# evaluates coefficients with it and inspects their variables
EVALUATOR_NAMES = ("evaluate", "free_variables")
EVALUATOR_OWNERS = ("dsl.py", "problem.py")


def dsl_evaluator_uses(source: str) -> list:
    """References to dsl.evaluate or dsl.free_variables, through any alias of dsl."""
    tree = ast.parse(source)
    aliases = {"dsl"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "dsl":
                    aliases.add(alias.asname or "dsl")
                elif (node.module or "").split(".")[-1] == "dsl" and alias.name in EVALUATOR_NAMES:
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[-1] == "dsl" and alias.asname:
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in EVALUATOR_NAMES:
            owner = node.value
            if ((isinstance(owner, ast.Name) and owner.id in aliases)
                    or (isinstance(owner, ast.Attribute) and owner.attr == "dsl")):
                found.append((node.lineno, node.attr))
    return [f"dsl.{name} (line {line})" for line, name in sorted(found)]


def test_evaluator_checker_finds_every_form():
    source = (
        "from . import dsl\n"
        "from . import dsl as expr\n"
        "from .dsl import free_variables, parse\n"
        "import mixedvalue.dsl as md\n"
        "import mixedvalue\n"
        "def f(e):\n"
        "    dsl.parse('x', ())\n"
        "    raise dsl.ExpressionError(expr.evaluate(e, {}))\n"
        "def g(e):\n"
        "    return md.free_variables(e) | mixedvalue.dsl.evaluate(e, {}) | dsl.evaluate\n"
    )
    assert dsl_evaluator_uses(source) == [
        "dsl.free_variables (line 3)", "dsl.evaluate (line 8)",
        "dsl.evaluate (line 10)", "dsl.evaluate (line 10)", "dsl.free_variables (line 10)",
    ]
    assert dsl_evaluator_uses("from . import dsl\nE = dsl.ExpressionError\n") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in EVALUATOR_OWNERS],
                         ids=[p.name for p in MODULES if p.name not in EVALUATOR_OWNERS])
def test_coefficients_evaluated_only_in_problem(path):
    assert dsl_evaluator_uses(path.read_text(encoding="utf-8")) == []
