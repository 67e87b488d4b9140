"""Static checks over the package source, written with the standard library."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mixedvalue"
BENCH = ROOT / "bench"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TEST_FILES,
                         ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_FILES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# A deletion must take its name out of every __all__ too: a stale export
# would only fail at ``from mixedvalue... import *``.


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_exports_resolve(path):
    module = importlib.import_module(
        "mixedvalue" if path.stem == "__init__" else f"mixedvalue.{path.stem}")
    stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == [], f"{path.name} exports names it does not define"


# dsl.py defines the expression evaluator; problem.py is the one place that
# evaluates coefficients with it and inspects their variables, and in
# problem.py dsl.evaluate is named only by the two evaluating methods
EVALUATOR_NAMES = ("evaluate", "free_variables")
PROBLEM_EVALUATORS = ("Problem.coefficients", "Problem.terminal_cost")


def dsl_evaluator_uses(source: str, names=EVALUATOR_NAMES, exempt=()) -> list:
    """References to the dsl functions ``names``, through any alias of dsl,
    outside the module-level functions or methods ("Class.method") in ``exempt``."""
    tree = ast.parse(source)
    aliases = {"dsl"}
    skipped = set()
    for node in tree.body:
        members = [("", node)]
        if isinstance(node, ast.ClassDef):
            members += [(f"{node.name}.", sub) for sub in node.body]
        for prefix, sub in members:
            if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and prefix + sub.name in exempt):
                skipped |= {id(n) for n in ast.walk(sub)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "dsl":
                    aliases.add(alias.asname or "dsl")
                elif (node.module or "").split(".")[-1] == "dsl" and alias.name in names:
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[-1] == "dsl" and alias.asname:
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names and id(node) not in skipped:
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


def test_evaluator_checker_exempts_only_the_named_methods():
    source = (
        "from . import dsl\n"
        "class Problem:\n"
        "    def coefficients(self, e):\n"
        "        return (lambda x: dsl.evaluate(x, {}))(e)\n"
        "    def running_cost(self, e):\n"
        "        return dsl.evaluate(e, {}) + dsl.free_variables(e)\n"
        "def coefficients(e):\n"
        "    return dsl.evaluate(e, {})\n"
    )
    assert dsl_evaluator_uses(source, ("evaluate",), ("Problem.coefficients",)) == [
        "dsl.evaluate (line 6)", "dsl.evaluate (line 8)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "dsl.py"],
                         ids=[p.name for p in MODULES if p.name != "dsl.py"])
def test_coefficients_evaluated_only_in_problem(path):
    source = path.read_text(encoding="utf-8")
    if path.name == "problem.py":
        assert dsl_evaluator_uses(source, ("evaluate",), PROBLEM_EVALUATORS) == []
    else:
        assert dsl_evaluator_uses(source) == []


# partition.py holds the one loop that steps under held strategies: every
# route that holds (mu, nu) over a subinterval runs its march, so a copy of
# that loop elsewhere fails here
STEP_FROZEN_OWNER = "partition.py"


def step_frozen_uses(source: str) -> list:
    """Lines that name a ``step_frozen`` attribute, called or not."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "step_frozen")


def test_step_frozen_checker_finds_calls_and_references():
    source = (
        "def step_frozen(self): pass\n"
        "def f(stepper, s):\n"
        "    step = stepper.step_frozen\n"
        "    return s.stepper.step_frozen(1)\n"
    )
    assert step_frozen_uses(source) == [3, 4]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_step_frozen_stepped_only_by_the_march(path):
    uses = step_frozen_uses(path.read_text(encoding="utf-8"))
    assert len(uses) == (1 if path.name == STEP_FROZEN_OWNER else 0), uses


# The benchmark harness reaches into the package by name: bench/run.py
# imports every module in its MODULES, and bench/tracing.py patches every
# ENTRY_POINTS attribute through its owner's __dict__ in every run.  A
# rename or deletion there would crash every benchmark run, so it fails here.


def bench_tracing() -> types.ModuleType:
    """bench/tracing.py executed from its source, writing no bytecode cache."""
    path = BENCH / "tracing.py"
    module = types.ModuleType("bench_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def bench_modules() -> tuple:
    """MODULES of bench/run.py, read with ast: importing run.py pins thread variables."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "MODULES" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py assigns no MODULES")


def test_bench_modules_import():
    for name in bench_modules():
        importlib.import_module(f"mixedvalue.{name}")


def test_bench_entry_points_exist():
    for mod_name, path, _, _ in bench_tracing().ENTRY_POINTS:
        owner = importlib.import_module(f"mixedvalue.{mod_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"bench traces mixedvalue.{mod_name}.{path}"


def unreferenced(sources: dict, wanted, named_elsewhere=frozenset()) -> list:
    """Module-level functions and classes, and methods, whose name passes
    ``wanted`` and is read nowhere in ``sources`` (module name -> source)
    outside its own definition, nor in ``named_elsewhere``.

    A read is a name or attribute loaded: an assignment target, such as a
    dataclass field of the same name, or a keyword argument is not one."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            members = [(f"{module}.", node)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{module}.{node.name}.", sub) for sub in node.body]
            for prefix, sub in members:
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                        and wanted(sub.name)):
                    defined.append((prefix, sub))
    missing = []
    for prefix, definition in defined:
        inside = {id(sub) for sub in ast.walk(definition)}
        used = definition.name in named_elsewhere or any(
            id(sub) not in inside
            and isinstance(getattr(sub, "ctx", None), ast.Load)
            and ((isinstance(sub, ast.Name) and sub.id == definition.name)
                 or (isinstance(sub, ast.Attribute) and sub.attr == definition.name))
            for tree in trees.values() for sub in ast.walk(tree))
        if not used:
            missing.append(f"{prefix}{definition.name} (line {definition.lineno})")
    return sorted(missing)


# Every private function, class or method in the package must be used
# somewhere other than its own definition, so that code replaced by a new
# path is deleted rather than kept beside it.


def unreferenced_private(sources: dict) -> list:
    """Private functions, classes and methods named nowhere outside their definition."""
    return unreferenced(sources, lambda name: name.startswith("_") and not name.endswith("__"))


def test_private_checker_finds_unreferenced_names():
    sources = {
        "a": (
            "def _used(): return 1\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "def _dead(): return _used()\n"
            "class _Kept:\n"
            "    def _method(self): return self._method()\n"
            "    def _called(self): return 2\n"
            "    def __init__(self): self._called()\n"
            "def public(): return _Kept\n"
        ),
        "b": "from .a import _used\nx = _used\n",
    }
    assert unreferenced_private(sources) == ["a._Kept._method (line 5)", "a._dead (line 3)",
                                             "a._recursive (line 2)"]


def test_no_unreferenced_private_code():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unreferenced_private(sources) == []


# Every public function, class or method in the package must be named
# somewhere else in src/ or by the benchmark in bench/, so that an option
# or helper only the tests reach is deleted.  Imports and __all__ entries
# are not uses.
PUBLIC_FOR_READERS = {
    # the paper states its convergence rate in the mesh |pi| of a partition
    "partition.Partition.mesh",
}


def unreferenced_public(sources: dict, named_elsewhere=frozenset()) -> list:
    """Public functions, classes and methods named nowhere outside their
    definition in ``sources``, nor in ``named_elsewhere``."""
    return unreferenced(sources, lambda name: not name.startswith("_"), named_elsewhere)


def used_names(sources, entry_points) -> set:
    """Names that ``sources`` use and do not define themselves with a def or
    class, and every part of each dotted path in ``entry_points``."""
    names, defined = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
    names -= defined
    for _, dotted, _, _ in entry_points:
        names |= set(dotted.split("."))
    return names


def bench_names() -> set:
    """Names the benchmark uses of the package: in bench/'s code and in its ENTRY_POINTS."""
    sources = [path.read_text(encoding="utf-8") for path in sorted(BENCH.glob("*.py"))]
    return used_names(sources, bench_tracing().ENTRY_POINTS)


def test_bench_names_skip_what_bench_defines():
    # a method bench defines and calls is no use of a package method of the
    # same name; an entry point's dotted parts are uses even when bench
    # defines a name like them
    sources = [
        "class Tracer:\n"
        "    def to_jsonable(self): return []\n"
        "    def game_values(self): return 0\n"
        "def run(tracer, mv):\n"
        "    return tracer.to_jsonable(), mv.pde.solve\n"
    ]
    names = used_names(sources, [("pde", "Stepper.game_values", "games.values", None)])
    assert "to_jsonable" not in names and "Tracer" not in names and "run" not in names
    assert {"solve", "pde", "mv", "Stepper", "game_values"} <= names


def test_public_checker_finds_names_used_only_by_imports_or_tests():
    sources = {
        "a": (
            "__all__ = ['Profile', 'helper', 'dead']\n"
            "class Profile:\n"
            "    def uniform(self): return self\n"
            "    def point_mass(self): return self.point_mass()\n"
            "    @property\n"
            "    def mesh(self): return 1\n"
            "    def __post_init__(self): pass\n"
            "def helper(): return Profile().uniform()\n"
            "def traced(): return 0\n"
            "def dead(): return helper\n"
            "def gain(): return 0\n"
            "class Result:\n"
            "    gain: float\n"
        ),
        "b": "from .a import dead, helper\nx = helper()\ny = a.Result(gain=1.0)\n",
    }
    assert unreferenced_public(sources, {"traced"}) == [
        "a.Profile.mesh (line 6)", "a.Profile.point_mass (line 4)", "a.dead (line 10)",
        "a.gain (line 11)"]


def test_no_public_code_only_tests_reach():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    found = {f.split(" ")[0] for f in unreferenced_public(sources, bench_names())}
    assert found == PUBLIC_FOR_READERS


# Importing the package must not load the standard library's process pools,
# executors or logging: each costs resident memory in every process that
# imports mixedvalue, including the benchmark's runs that never use it.
HEAVY_STDLIB = ("concurrent", "multiprocessing", "logging")


def test_import_loads_no_executor_or_logging():
    code = (
        "import json, sys\n"
        "import numpy\n"
        f"for name in {[p.stem for p in MODULES if p.stem != '__init__']!r}:\n"
        "    __import__('mixedvalue.' + name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent),
                                                        os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert "mixedvalue.montecarlo" in loaded
    assert [m for m in loaded if m.split(".")[0] in HEAVY_STDLIB] == []
