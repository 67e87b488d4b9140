"""Benchmark of mixedvalue's three routes to the game value.

One run:

    python3 bench/run.py --workload relaxed_1d --seed 1 --seconds 30 --trace 0

sets the package up several times (fresh import, problem load, grids and
profiles), runs one untimed warm-up operation on the reference input and
checks it against ``reference.json``, then repeats the seeded operation for
``--seconds`` seconds, gating every result.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run alternates untraced and traced
operations, so it also reports the tracing overhead.

    python3 bench/run.py --all        # every workload and mode, full size
    python3 bench/run.py --self-test  # the same at tiny size, plus gate checks

See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, here and in every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "MIXEDVALUE_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from tracing import Tracer, durations, span_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("dsl", "problem", "games", "hamiltonian", "pde", "partition", "montecarlo", "cli")
SETUP_REPEATS = 11
MIN_OPS = 3  # timed operations per run, whatever --seconds says
TMP_DIR = ROOT / ".bench_tmp"
TRACE_DIR = ROOT / ".bench_trace"

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "node_levels_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "problem.load_s": "s",
    "dsl.evaluate_calls": "count",
    "dsl.evaluate_s": "s",
    "games.nodes": "count",
    "games.values_s": "s",
    "games.us_per_node": "us",
    "pde.entries_calls": "count",
    "pde.entries_s": "s",
    "pde.step_self_s": "s",
    "pde.solve_self_s": "s",
    "pde.check_bound_s": "s",
    "pde.node_levels": "count",
    "pde.levels_mb": "MB",
    "partition.sweep_self_s": "s",
    "partition.step_frozen_calls": "count",
    "partition.step_frozen_self_s": "s",
    "montecarlo.simulate_self_s": "s",
    "montecarlo.rng_s": "s",
    "montecarlo.rng_draws": "count",
    "montecarlo.paths": "count",
    "montecarlo.paths_per_s": "1/s",
    "montecarlo.estimate_s": "s",
    "montecarlo.exploit_self_s": "s",
    "montecarlo.exploit_gain": "payoff",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.op_s_p50": "s",
    "trace.overhead_frac": "fraction",
}
# counts that must repeat exactly from operation to operation
COUNTS = ("games.nodes", "pde.node_levels", "pde.entries_calls", "partition.step_frozen_calls",
          "dsl.evaluate_calls", "montecarlo.rng_draws", "montecarlo.paths")


def import_fresh() -> types.SimpleNamespace:
    """Import mixedvalue from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "mixedvalue" or n.startswith("mixedvalue.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("mixedvalue")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"mixedvalue was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        mixedvalue=pkg, **{m: importlib.import_module(f"mixedvalue.{m}") for m in MODULES})


def attempt(wl, mv, ctx, tracer=None, reference=None):
    """One operation, timed, then gated: (seconds or None, failures, summary)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.install(vars(mv))
        try:
            start = time.perf_counter()
            raw = wl.run(mv, ctx)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # an operation that raises is a failed operation
            return None, [f"raised {type(exc).__name__}: {exc}"], {}
        finally:
            if tracer is not None:
                tracer.uninstall()
    try:
        out = wl.read(ctx, raw)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return elapsed, [f"output: {type(exc).__name__}: {exc}"], {}
    fails = [f"warning: {w.message}" for w in caught] + wl.gates(ctx, out, reference)
    return elapsed, fails, wl.summary(out)


def op_layers(spans, counts, ctx) -> dict:
    """Per-layer metrics of one traced operation."""
    calls, total, self_s = span_times(spans)
    nodes = counts["games.nodes"]
    return {
        "dsl.evaluate_calls": calls["dsl.evaluate"],
        "dsl.evaluate_s": total["dsl.evaluate"],
        "games.nodes": nodes,
        "games.values_s": total["games.values"],
        "games.us_per_node": 1e6 * counts["games.relaxed_s"] / nodes if nodes else 0.0,
        "pde.entries_calls": calls["pde.entries"],
        "pde.entries_s": total["pde.entries"],
        "pde.step_self_s": self_s["pde.step"],
        "pde.solve_self_s": self_s["pde.solve"],
        "pde.check_bound_s": total["pde.check_bound"],
        "pde.node_levels": counts["pde.node_levels"],
        "pde.levels_mb": counts["pde.levels_bytes"] / 1e6,
        "partition.sweep_self_s": self_s["partition.sweep"],
        "partition.step_frozen_calls": calls["partition.step_frozen"],
        "partition.step_frozen_self_s": self_s["partition.step_frozen"],
        "montecarlo.simulate_self_s": self_s["montecarlo.simulate"],
        "montecarlo.rng_s": total["montecarlo.rng"],
        "montecarlo.rng_draws": counts["montecarlo.rng_draws"],
        "montecarlo.paths": counts["montecarlo.paths"],
        "montecarlo.estimate_s": total["montecarlo.estimate"],
        "montecarlo.exploit_self_s": self_s["montecarlo.exploit"],
        "cli.self_s": self_s["cli.dispatch"],
        "cli.bytes_written": sum(p.stat().st_size for p in ctx["out_dir"].iterdir()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    wl = WORKLOADS[name]
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))[size][name]
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_DIR))
    try:
        inp = wl.inputs(seed, size, tmp)
        ref_inp = wl.inputs(None, size, tmp)
        tracer = Tracer() if trace else None

        setup_times = []
        for _ in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.begin("setup")
            start = time.perf_counter()
            mv = import_fresh()
            if tracer is not None:
                tracer.install(vars(mv))
            try:
                ctx = wl.setup(mv, inp)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            setup_times.append(time.perf_counter() - start)
        ref_ctx = wl.setup(mv, ref_inp)
        wl.prepare(mv, ref_ctx)
        wl.prepare(mv, ctx)

        # warm-up on the reference input; its counts give the work per operation
        counter = Tracer()
        counter.begin("warmup")
        _, warm_fails, _ = attempt(wl, mv, ref_ctx, counter, reference)
        warm_layers = op_layers(*counter.last(), ref_ctx)
        failures = [f"warm-up {f}" for f in warm_fails]
        attempted, failed = 1, int(bool(warm_fails))

        times = {False: [], True: []}
        runs = {False: 0, True: 0}
        layers, summaries = [], []
        start = time.perf_counter()
        while True:
            traced = trace and runs[False] > runs[True]
            if traced:
                tracer.begin("op")
            elapsed, fails, summary = attempt(wl, mv, ctx, tracer if traced else None)
            attempted += 1
            runs[traced] += 1
            if fails:
                failed += 1
                failures.extend(fails)
            if elapsed is not None:
                times[traced].append(elapsed)
            if traced:
                layers.append(op_layers(*tracer.last(), ctx))
            summaries.append(summary)
            enough = runs[False] >= MIN_OPS and (not trace or runs[True] >= MIN_OPS)
            if time.perf_counter() - start >= seconds and enough:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    op_s = _median(times[False])
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_s_p50": op_s,
            "node_levels_per_s": warm_layers["pde.node_levels"] / op_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        notes = [f"{len(times[False])} timed operations; op_s quartiles "
                 + ", ".join(f"{q:.4g}" for q in _quartiles(times[False]))]
    else:
        drift = [k for k in COUNTS if any(op[k] != warm_layers[k] for op in layers)]
        if drift:
            failures.append(f"self-check: counts {drift} differ between operations")
        metrics = {k: statistics.median(op[k] for op in layers) for k in layers[0]}
        loads = [d for _, spans, _ in tracer.phases for d in durations(spans, "problem.load")]
        metrics["problem.load_s"] = statistics.median(loads)
        metrics["montecarlo.paths_per_s"] = metrics["montecarlo.paths"] / op_s
        metrics["montecarlo.exploit_gain"] = statistics.median(
            s.get("exploit_gain", 0.0) for s in summaries)
        metrics["trace.op_s_p50"] = _median(times[True])
        metrics["trace.overhead_frac"] = metrics["trace.op_s_p50"] / op_s - 1.0
        metrics = {k: metrics[k] for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        notes = [f"{len(times[False])} untraced and {len(times[True])} traced operations"]
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"{name}-seed{seed}.json"
        trace_file.write_text(json.dumps({"workload": name, "seed": seed,
                                          "phases": tracer.to_jsonable()}), encoding="utf-8")
        notes.append(f"spans written to {trace_file.relative_to(ROOT)}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "_notes": notes + failures,
    }


def _median(values):
    return statistics.median(values) if values else math.nan


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values)


# ---------------------------------------------------------------------------
# Every workload in fresh processes, and the self-test
# ---------------------------------------------------------------------------


def _child(name, seed, seconds, trace, tiny, cwd=ROOT):
    cmd = [sys.executable, str(cwd / BENCH.name / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def run_all(seed: int, seconds: float, tiny: bool) -> list:
    """Run every workload untraced and traced; print and check every metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for wl in spec["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            proc = _child(wl["name"], seed, seconds, trace, tiny)
            label = f"{wl['name']} trace={int(trace)}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: exit {proc.returncode}, no result\n{proc.stderr}")
                continue
            print(f"== {label}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{label}: metric {m['name']} missing")
                    continue
                print(f"   {m['name']:30s} {got['value']:>16.6g} {got['unit']}")
                if got["unit"] != m["unit"]:
                    problems.append(f"{label}: {m['name']} unit {got['unit']} != {m['unit']}")
                if not math.isfinite(got["value"]) or (not trace and got["value"] <= 0):
                    problems.append(f"{label}: {m['name']} = {got['value']}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: gates failed\n{proc.stdout}")
    return problems


def gate_self_test() -> list:
    """Each gate passes on a real tiny result and trips on a perturbed one."""
    problems = []
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_DIR))
    try:
        mv = import_fresh()
        refs = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))["tiny"]
        for wl in WORKLOADS.values():
            ctx = wl.setup(mv, wl.inputs(None, "tiny", tmp))
            wl.prepare(mv, ctx)
            out = wl.read(ctx, wl.run(mv, ctx))
            base = wl.gates(ctx, out, refs[wl.name])
            if base:
                problems.append(f"{wl.name}: unperturbed result fails {base}")
            for gate, perturb in wl.perturbations.items():
                fails = wl.gates(ctx, perturb(out), refs[wl.name])
                tripped = any(f.startswith(gate + ":") for f in fails)
                print(f"   {wl.name:12s} gate {gate:16s} {'trips' if tripped else 'DOES NOT TRIP'}")
                if not tripped:
                    problems.append(f"{wl.name}: gate {gate} does not trip on a perturbed result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return problems


def bare_dir_test() -> list:
    """Without the package source next to it the benchmark must fail, printing no result."""
    TMP_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=TMP_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _child("relaxed_1d", 1, 1, False, True, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return [f"bare directory: exit {proc.returncode}, last line {last!r}"]
    print(f"   bare directory exits with {proc.returncode} and prints no result")
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test problem sizes")
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--self-test", action="store_true",
                    help="--all at tiny size, plus gate and bare-directory checks")
    args = ap.parse_args(argv)

    if args.self_test or args.all:
        problems = run_all(args.seed, 1 if args.self_test else args.seconds, args.self_test)
        if args.self_test:
            problems += gate_self_test() + bare_dir_test()
        for p in problems:
            print(f"PROBLEM: {p}")
        if problems:
            print(f"{len(problems)} problems")
            return 1
        print("self-test passed" if args.self_test else "all workloads passed")
        return 0
    if args.workload is None:
        ap.error("--workload is required (or --all / --self-test)")

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          "tiny" if args.tiny else "full")
    for note in result.pop("_notes"):
        print(note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
