"""The benchmark's workloads: inputs, set-up, one operation, and its gates.

Every workload draws its inputs from the seed and hands them to
``mixedvalue`` only as generated inputs: a problem file written to the run's
temporary directory, or the ``--seed`` and ``--x0`` arguments of the CLI.
The seed never changes the amount of work, so counts repeat across seeds.
``inputs(None, ...)`` gives the fixed reference input whose outputs were
recorded in ``reference.json``; the untimed warm-up operation runs on it.

A gate returns a message starting with its name when it fails.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# work per operation; "tiny" is the self-test size
SIZES = {
    "full": {
        "relaxed_1d": {"nx": 81, "n_steps": 16},
        "pure_2d": {"nx": 101},
        "mc_1d": {"nx": 101, "n_steps": 8, "paths": 100_000, "exploit_paths": 20_000},
    },
    "tiny": {
        "relaxed_1d": {"nx": 21, "n_steps": 4},
        "pure_2d": {"nx": 21},
        "mc_1d": {"nx": 21, "n_steps": 4, "paths": 2_000, "exploit_paths": 500},
    },
}


def load_checked(mv, source):
    """load_problem with every warning, such as a violated declared bound, raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return mv.problem.load_problem(source)


def run_cli(mv, argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mv.cli.dispatch(argv)
    if code != 0:
        raise RuntimeError(f"mixedvalue {argv[0]} exited with {code}: {err.getvalue().strip()}")


def _write_problem(tmp: Path, label: str, cfg: dict) -> str:
    path = tmp / f"{label}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _out_dir(tmp: Path, label: str) -> Path:
    path = tmp / label
    path.mkdir(exist_ok=True)
    return path


def _bundled(name: str) -> dict:
    return json.loads((HERE / "problems" / f"{name}.json").read_text(encoding="utf-8"))


def _max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class Relaxed1D:
    """CLI solve-pde (relaxed) then solve-partition (both) on drift_cost3."""

    name = "relaxed_1d"
    game_tol = 1e-9  # SchemeParams default, used by both CLI commands
    ref_tol = 1e-8  # |V(0) - reference|: ten times T * game_tol

    def inputs(self, seed, size, tmp: Path) -> dict:
        cfg = _bundled("drift_cost3")
        label = "reference" if seed is None else f"seed{seed}"
        if seed is not None:
            theta = random.Random(seed).uniform(0.0, 2.0 * math.pi)
            cfg["phi"] = f"cos(x1 + {theta:.6f})"
        return {"problem": _write_problem(tmp, f"{self.name}-{label}", cfg),
                "out_dir": _out_dir(tmp, f"{self.name}-{label}"), **SIZES[size][self.name]}

    def setup(self, mv, inp) -> dict:
        prob = load_checked(mv, inp["problem"])
        grid = mv.pde.SpaceGrid.for_problem(prob, inp["nx"])
        out = inp["out_dir"]
        common = ["--problem", inp["problem"], "--nx", str(inp["nx"])]
        return dict(
            inp, prob=prob, grid=grid,
            argv_pde=["solve-pde", *common, "--mode", "relaxed", "--out", str(out / "v.csv")],
            argv_partition=["solve-partition", *common, "--orientation", "both",
                            "--n-steps", str(inp["n_steps"]), "--out", str(out / "w.csv")],
        )

    def prepare(self, mv, ctx) -> None:
        for mode in ("pure_lower", "pure_upper"):
            levels = mv.pde.solve(ctx["prob"], ctx["grid"], mv.pde.SchemeParams(hamiltonian_mode=mode))
            ctx[mode] = levels[-1].values

    def run(self, mv, ctx):
        run_cli(mv, ctx["argv_pde"])
        run_cli(mv, ctx["argv_partition"])

    def read(self, ctx, raw) -> dict:
        out = {"V0": [], "W0": [], "U0": []}
        with open(ctx["out_dir"] / "v.csv", newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            next(rows)
            out["V0"] = [float(r[-1]) for r in rows if float(r[0]) == 0.0]
        with open(ctx["out_dir"] / "w.csv", newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            next(rows)
            for r in rows:
                if float(r[1]) == 0.0:
                    out["W0" if r[0] == "lower" else "U0"].append(float(r[-1]))
        for key, vals in out.items():
            if len(vals) != ctx["nx"]:
                raise ValueError(f"{key} has {len(vals)} nodes at t=0, expected {ctx['nx']}")
        return {k: np.array(v) for k, v in out.items()}

    def gates(self, ctx, out, reference=None) -> list:
        fails = []
        v0 = out["V0"]
        excess = max(float(np.max(ctx["pure_lower"] - v0)), float(np.max(v0 - ctx["pure_upper"])))
        if excess > self.game_tol:
            fails.append(f"bracket: V(0) leaves [pure_lower, pure_upper] by {excess:.3g}")
        wu = _max_abs_diff(out["W0"], out["U0"])
        if wu > ctx["prob"].T * self.game_tol:
            fails.append(f"w_u: sup|W_pi(0) - U_pi(0)| = {wu:.3g} > T * game_tol")
        if reference is not None:
            dv = _max_abs_diff(v0, reference["V0"])
            if dv > self.ref_tol:
                fails.append(f"reference: sup|V(0) - reference| = {dv:.3g} > {self.ref_tol:g}")
        return fails

    def fingerprint(self, out) -> dict:
        return {"V0": out["V0"].tolist()}

    def summary(self, out) -> dict:
        return {}

    perturbations = {
        "bracket": lambda out: dict(out, V0=out["V0"] + 10.0),
        "w_u": lambda out: dict(out, W0=out["W0"] + 1e-8),
        "reference": lambda out: dict(out, V0=out["V0"] + 1e-7),
    }


class Pure2D:
    """API pde.solve in pure_lower then pure_upper on bilinear_drift_2d."""

    name = "pure_2d"
    order_tol = 1e-12
    ref_tol = 1e-10  # no local LPs: only rounding may move the fields
    ref_stride = 10  # the reference keeps every 10th node per axis

    def inputs(self, seed, size, tmp: Path) -> dict:
        cfg = _bundled("bilinear_drift_2d")
        label = "reference" if seed is None else f"seed{seed}"
        if seed is not None:
            rng = random.Random(seed)
            t1, t2 = (rng.uniform(0.0, 2.0 * math.pi) for _ in range(2))
            cfg["phi"] = f"cos(x1 + {t1:.6f})*cos(x2 + {t2:.6f})"
        return {"problem": _write_problem(tmp, f"{self.name}-{label}", cfg),
                "out_dir": _out_dir(tmp, f"{self.name}-{label}"), **SIZES[size][self.name]}

    def setup(self, mv, inp) -> dict:
        prob = load_checked(mv, inp["problem"])
        return dict(
            inp, prob=prob, grid=mv.pde.SpaceGrid.for_problem(prob, inp["nx"]),
            lower=mv.pde.SchemeParams(hamiltonian_mode="pure_lower"),
            upper=mv.pde.SchemeParams(hamiltonian_mode="pure_upper"),
        )

    def prepare(self, mv, ctx) -> None:
        ctx["window"] = mv.pde.window_mask(ctx["prob"], ctx["grid"])

    def run(self, mv, ctx):
        lower = mv.pde.solve(ctx["prob"], ctx["grid"], ctx["lower"])
        upper = mv.pde.solve(ctx["prob"], ctx["grid"], ctx["upper"])
        return lower, upper

    def read(self, ctx, raw) -> dict:
        lower, upper = ([f.values for f in levels] for levels in raw)
        if len(lower) != len(upper):
            raise ValueError(f"{len(lower)} lower levels but {len(upper)} upper levels")
        return {"lower": lower, "upper": upper}

    def gates(self, ctx, out, reference=None) -> list:
        fails = []
        worst = max(float(np.max(lo - up)) for lo, up in zip(out["lower"], out["upper"]))
        if worst > self.order_tol:
            fails.append(f"order: pure_lower exceeds pure_upper by {worst:.3g}")
        gap = float(np.max((out["upper"][-1] - out["lower"][-1])[ctx["window"]]))
        if not gap > 0.0:
            fails.append(f"isaacs_gap: max Isaacs gap on the interior window is {gap:.3g}")
        if reference is not None:
            fp = self.fingerprint(out)
            diff = max(_max_abs_diff(fp[k], reference[k]) for k in fp)
            if diff > self.ref_tol:
                fails.append(f"reference: fields at t=0 differ from the reference by {diff:.3g}")
        return fails

    def fingerprint(self, out) -> dict:
        s = self.ref_stride
        return {"lower0": out["lower"][-1][::s, ::s].ravel().tolist(),
                "upper0": out["upper"][-1][::s, ::s].ravel().tolist()}

    def summary(self, out) -> dict:
        return {}

    perturbations = {
        "order": lambda out: dict(out, lower=out["upper"], upper=out["lower"]),
        "isaacs_gap": lambda out: dict(out, upper=out["lower"]),
        "reference": lambda out: dict(out, lower=[v + 1e-9 for v in out["lower"]]),
    }


class MC1D:
    """CLI simulate on uv_drift with the saddle profile, then exploit."""

    name = "mc_1d"
    reference_seed = 0

    def inputs(self, seed, size, tmp: Path) -> dict:
        sizes = SIZES[size][self.name]
        if seed is None:
            label, sim_seed, x0 = "reference", self.reference_seed, "0.0"
        else:
            label, sim_seed = f"seed{seed}", seed % 2**32  # Philox keys are non-negative
            x0 = f"{random.Random(seed).uniform(-1.0, 1.0):.3f}"
        out = _out_dir(tmp, f"{self.name}-{label}")
        argv = ["simulate", "--problem", "uv_drift", "--profile", "saddle",
                "--n-steps", str(sizes["n_steps"]), "--paths", str(sizes["paths"]),
                "--seed", str(sim_seed), f"--x0={x0}", "--nx", str(sizes["nx"]),
                "--out", str(out / "sim.csv")]
        return {"argv": argv, "seed": sim_seed, "x0": float(x0), "out_dir": out, **sizes}

    def setup(self, mv, inp) -> dict:
        prob = load_checked(mv, "uv_drift")
        pi = mv.partition.Partition.uniform(prob.T, inp["n_steps"])
        grid = mv.pde.SpaceGrid.for_problem(prob, inp["nx"])
        sweep = mv.partition.dpp_sweep(prob, grid, pi, mv.pde.SchemeParams(), "lower",
                                       record_strategies=True)
        profile = mv.montecarlo.StrategyProfile.from_sweep(sweep, grid)
        return dict(inp, prob=prob, pi=pi, profile=profile)

    def prepare(self, mv, ctx) -> None:
        pass

    def run(self, mv, ctx):
        run_cli(mv, ctx["argv"])
        mc = mv.montecarlo
        return mc.exploit(ctx["prob"], ctx["pi"], "player1", ctx["profile"], [ctx["x0"]],
                          ctx["exploit_paths"], mc.RandomizationDevice(ctx["seed"]))

    def read(self, ctx, raw) -> dict:
        with open(ctx["out_dir"] / "sim.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 1:
            raise ValueError(f"simulate wrote {len(rows)} rows, expected 1")
        row = rows[0]
        return {"estimate": float(row["estimate"]), "std_error": float(row["std_error"]),
                "paths": int(row["paths"]), "gain": float(raw.gain)}

    def gates(self, ctx, out, reference=None) -> list:
        fails = []
        # uv_drift under the 50/50 saddle profile has E[X_T] = x0 exactly
        err = abs(out["estimate"] - ctx["x0"])
        if not err <= 4.0 * out["std_error"]:
            fails.append(f"four_se: |estimate - x0| = {err:.3g} > 4 SE = {4 * out['std_error']:.3g}")
        if out["paths"] != ctx["paths"]:
            fails.append(f"paths: simulate reports {out['paths']} paths, asked for {ctx['paths']}")
        if not math.isfinite(out["gain"]):
            fails.append(f"exploit_finite: exploit gain is {out['gain']}")
        if reference is not None:
            fp = self.fingerprint(out)
            if fp != reference:
                fails.append(f"reference: (estimate, std_error) {fp} is not bitwise {reference}")
        return fails

    def fingerprint(self, out) -> dict:
        return {"estimate": out["estimate"], "std_error": out["std_error"]}

    def summary(self, out) -> dict:
        return {"exploit_gain": out["gain"]}

    perturbations = {
        "four_se": lambda out: dict(out, estimate=out["estimate"] + 5.0 * out["std_error"]),
        "paths": lambda out: dict(out, paths=out["paths"] - 1),
        "exploit_finite": lambda out: dict(out, gain=math.nan),
        "reference": lambda out: dict(out, estimate=math.nextafter(out["estimate"], math.inf)),
    }


WORKLOADS = {wl.name: wl for wl in (Relaxed1D(), Pure2D(), MC1D())}
