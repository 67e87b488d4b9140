"""Spans and counts recorded around mixedvalue's public entry points.

The package itself carries no instrumentation, so the traced run patches
the entry points from outside: every function or method named in
``ENTRY_POINTS`` is replaced by a wrapper that records a span (name, start,
end, parent) and, where a hook is given, adds to the counts.  Modules that
imported a function by name (``cli.load_problem``, ``cli.dpp_sweep``,
``partition.solve``, ...) hold their own reference to it; ``install`` finds
every such alias and patches it too.  Spans stay in memory and are written
out when the benchmark ends.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict


def _work_nodes(stepper) -> int:
    return math.prod(stepper.work_shape)


def _count_games(counts, elapsed, args, kwargs, result):
    # Stepper.game_values(self, ent, mode, ...): local LPs only run in
    # relaxed mode on games larger than 1x1
    stepper, ent = args[0], args[1]
    mode = args[2] if len(args) > 2 else kwargs.get("mode")
    if mode == "relaxed" and stepper.m * stepper.k > 1:
        counts["games.nodes"] += math.prod(ent.shape[2:])
        counts["games.relaxed_s"] += elapsed


def _count_node_levels(counts, elapsed, args, kwargs, result):
    counts["pde.node_levels"] += _work_nodes(args[0])


def _retained_bytes(levels) -> int:
    return sum(getattr(getattr(lv, "values", None), "nbytes", 0) for lv in levels)


def _count_solve_levels(counts, elapsed, args, kwargs, result):
    counts["pde.levels_bytes"] += _retained_bytes(result)


def _count_sweep_levels(counts, elapsed, args, kwargs, result):
    extra = sum(getattr(a, "nbytes", 0) for a in (result.mu, result.nu))
    counts["pde.levels_bytes"] += _retained_bytes(result.levels) + extra


def _count_draws(counts, elapsed, args, kwargs, result):
    counts["montecarlo.rng_draws"] += result.size


def _count_paths(counts, elapsed, args, kwargs, result):
    counts["montecarlo.paths"] += result.n_paths


# (module, attribute path, span name, count hook)
ENTRY_POINTS = (
    ("problem", "load_problem", "problem.load", None),
    ("dsl", "evaluate", "dsl.evaluate", None),
    ("pde", "Stepper.game_values", "games.values", _count_games),
    ("pde", "Stepper.entries", "pde.entries", None),
    ("pde", "Stepper.step", "pde.step", _count_node_levels),
    ("pde", "ValueField.check_bound", "pde.check_bound", None),
    ("pde", "solve", "pde.solve", _count_solve_levels),
    ("pde", "Stepper.step_frozen", "partition.step_frozen", _count_node_levels),
    ("partition", "dpp_sweep", "partition.sweep", _count_sweep_levels),
    ("montecarlo", "simulate", "montecarlo.simulate", _count_paths),
    ("montecarlo", "RandomizationDevice.control_uniforms", "montecarlo.rng", _count_draws),
    ("montecarlo", "RandomizationDevice.brownian_normals", "montecarlo.rng", _count_draws),
    ("montecarlo", "RandomizationDevice.exploration_normals", "montecarlo.rng", _count_draws),
    ("montecarlo", "estimate_payoff", "montecarlo.estimate", None),
    ("montecarlo", "exploit", "montecarlo.exploit", None),
    ("cli", "dispatch", "cli.dispatch", None),
)


class Tracer:
    """Records spans of one phase at a time (a set-up, an operation)."""

    def __init__(self):
        self.phases = []  # (label, spans, counts); a span is [name, start, end, parent]
        self._spans = None
        self._counts = None
        self._stack = []
        self._patches = []

    # -- phases ---------------------------------------------------------------

    def begin(self, label: str) -> None:
        self._spans, self._counts = [], Counter()
        self.phases.append((label, self._spans, self._counts))

    def last(self):
        """(spans, counts) of the most recent phase."""
        return self.phases[-1][1], self.phases[-1][2]

    # -- patching ---------------------------------------------------------------

    def _wrap(self, fn, name, hook):
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self._spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self._counts, span[2] - span[1], args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Patch every entry point and every module-level alias of it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, path, name, hook in ENTRY_POINTS:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patch(owner, attr, self._wrap(original, name, hook))
            if outer:
                continue  # a method: patching the class covers every caller
            for mod in modules.values():
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, alias, getattr(owner, attr))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def to_jsonable(self) -> list:
        return [
            {"phase": label, "spans": spans, "counts": dict(counts)}
            for label, spans, counts in self.phases
        ]


def span_times(spans):
    """Per span name: (calls, inclusive seconds, self seconds).

    Self time is a span's duration minus the durations of the spans it
    directly encloses; calls are single-threaded, so children never overlap.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]
    return calls, total, self_s


def durations(spans, name):
    return [end - start for n, start, end, _ in spans if n == name]
