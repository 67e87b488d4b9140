"""Command-line entry point.

Subcommands: game, hamiltonian, solve-pde, solve-partition, converge,
simulate, gap-report (plus replay for manifest verification).  Every
output file gets a sibling ``<out>.manifest.json`` recording every parsed
argument and what the command derived from them (step count, partition,
parsed lists), the tool version, wall-clock time and a sha256 digest of the
output; replaying a manifest re-runs its ``argv`` and checks the digests.

Exit codes: 0 success, 2 validation or usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import itertools
import json
import os
import sys
import tempfile
import time
import warnings

import numpy as np

from . import __version__, montecarlo as mc, pde
from .games import pure_envelope, solve_games
from .hamiltonian import payoff_matrix
from .partition import Partition, convergence_study, dpp_sweep
from .problem import ProblemError, load_problem

# every validation error of the package subclasses ValueError, and so does
# json.JSONDecodeError
_VALIDATION_ERRORS = (ValueError, FileNotFoundError)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(args, argv, started: float, **derived) -> None:
    """Write ``<args.out>.manifest.json`` for a run that wrote ``args.out``.

    ``resolved`` holds every parsed argument but ``out``, and then what the
    command derived from them (``derived`` replaces an argument of the same
    name, such as the parsed list of a comma-separated option).
    """
    skip = ("func", "subcommand", "out")
    manifest = {
        "tool": "mixedvalue",
        "version": __version__,
        "subcommand": args.subcommand,
        "argv": list(argv),
        "resolved": {**{k: v for k, v in vars(args).items() if k not in skip}, **derived},
        "wallclock_s": round(time.time() - started, 6),
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": {os.path.basename(args.out): _sha256(args.out)},
    }
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_level_csv(path: str, header, runs, grid) -> None:
    """Write one row per grid node and level, formatted as ``csv`` would.

    ``runs`` is a list of (lead, levels), ``lead`` being the text of the
    columns before ``t``, each followed by a comma.  Floats are written as ``repr`` of the Python
    float, which is how ``csv.writer`` formats them, so the bytes equal
    those of ``csv.writer`` over per-node tuples.
    """
    nodes = [",".join(map(repr, node))
             for node in itertools.product(*(ax.tolist() for ax in grid.axes))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for lead, levels in runs:
            for fld in levels:
                row = f"{lead}{float(fld.t)!r},"
                fh.write("".join(f"{row}{node},{v!r}\r\n"
                                 for node, v in zip(nodes, fld.values.ravel().tolist())))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_game(args, argv, started):
    with warnings.catch_warnings():
        # an empty file warns here; solve_games rejects its (0, 1) matrix below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        ent = np.loadtxt(args.matrix, delimiter=",", ndmin=2)[:, :, None]
    sol = solve_games(ent, tol=args.tol)  # first: it rejects malformed matrices
    payload = {
        "value": float(sol.value[0]),
        "mu_star": sol.mu[0].tolist(),
        "nu_star": sol.nu[0].tolist(),
        "duality_gap": float(sol.gap[0]),
        "pure_lower": float(pure_envelope(ent, upper=False)[0]),
        "pure_upper": float(pure_envelope(ent, upper=True)[0]),
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _write_manifest(args, argv, started)
    sys.stdout.write(text)
    return 0


def _cmd_hamiltonian(args, argv, started):
    if min(args.n_p, args.n_a) < 1:  # an empty axis would write a table of no rows
        raise ValueError(f"--n-p and --n-a must be at least 1, got {args.n_p} and {args.n_a}")
    prob = load_problem(args.problem)
    if prob.d != 1:
        raise ProblemError("the hamiltonian sweep command supports d=1 problems only")
    # p on the outer loop, A on the inner
    p = np.repeat(np.linspace(args.p_min, args.p_max, args.n_p), args.n_a)
    a = np.tile(np.linspace(args.a_min, args.a_max, args.n_a), args.n_p)
    ent = payoff_matrix(prob, args.t, [args.x], args.y, p[:, None], a[:, None, None])
    sol = solve_games(ent, tol=args.tol)
    lower, upper = (pure_envelope(ent, upper=side).tolist() for side in (False, True))
    rows = [(args.t, args.x, *row) for row in zip(p.tolist(), a.tolist(), lower, upper,
                                                  sol.value.tolist(), sol.gap.tolist())]
    _write_csv(args.out, ["t", "x", "p", "A", "h_minus", "h_plus", "h_relaxed", "gap"], rows)
    _write_manifest(args, argv, started)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_solve_pde(args, argv, started):
    prob = load_problem(args.problem)
    grid = pde.SpaceGrid.for_problem(prob, args.nx)
    params = pde.SchemeParams(hamiltonian_mode=args.mode, cfl_safety=args.dt_safety)
    levels = pde.solve(prob, grid, params)
    _write_level_csv(args.out, ["t", *prob.x_names(), "value"], [("", levels)], grid)
    _write_manifest(args, argv, started, n_steps=len(levels) - 1)
    v0 = levels[-1].values
    print(f"solved {prob.name} [{args.mode}]: {len(levels) - 1} steps, "
          f"V(0) range [{v0.min():.6g}, {v0.max():.6g}], wrote {args.out}")
    return 0


def _cmd_solve_partition(args, argv, started):
    prob = load_problem(args.problem)
    grid = pde.SpaceGrid.for_problem(prob, args.nx)
    params = pde.SchemeParams(cfl_safety=args.dt_safety)
    pi = Partition.uniform(prob.T, args.n_steps)
    orientations = ["lower", "upper"] if args.orientation == "both" else [args.orientation]
    header = ["orientation", "t", *prob.x_names(), "value"]
    runs = [(f"{orientation},", dpp_sweep(prob, grid, pi, params, orientation).levels)
            for orientation in orientations]
    _write_level_csv(args.out, header, runs, grid)
    _write_manifest(args, argv, started, partition=list(pi.times))
    print(f"swept {prob.name} n={args.n_steps} ({args.orientation}), wrote {args.out}")
    return 0


def _cmd_converge(args, argv, started):
    prob = load_problem(args.problem)
    grid = pde.SpaceGrid.for_problem(prob, args.nx)
    meshes = [int(s) for s in args.meshes.split(",")]
    params = pde.SchemeParams(cfl_safety=args.dt_safety)
    rows = convergence_study(prob, grid, meshes, params)
    header = list(rows[0].keys())
    _write_csv(args.out, header, [[r[k] for k in header] for r in rows])
    _write_manifest(args, argv, started, meshes=meshes)
    for r in rows:
        print(f"n={r['n']:4d}  |pi|={r['mesh']:.5f}  sup|W-V|={r['sup_w_minus_v']:.3e}")
    return 0


def _cmd_simulate(args, argv, started):
    prob = load_problem(args.problem)
    pi = Partition.uniform(prob.T, args.n_steps)
    device = mc.RandomizationDevice(args.seed)
    if args.profile == "uniform":
        profile = mc.StrategyProfile.uniform(prob, pi.n)
    elif args.profile == "saddle":
        grid = pde.SpaceGrid.for_problem(prob, args.nx)
        res = dpp_sweep(prob, grid, pi, pde.SchemeParams(), "lower", record_strategies=True)
        profile = mc.StrategyProfile.from_sweep(res, grid)
    else:
        with open(args.profile, "r", encoding="utf-8") as fh:
            profile = mc.StrategyProfile.from_jsonable(json.load(fh))
    x0 = [float(s) for s in args.x0.split(",")] if args.x0 else [0.0] * prob.d
    est = mc.estimate(prob, pi, profile, x0, args.paths, args.euler_substeps, device)
    _write_csv(args.out, ["estimate", "std_error", "paths", "seed"],
               [[est.mean, est.std_error, est.n_paths, args.seed]])
    _write_manifest(args, argv, started, x0=x0)
    print(f"estimate={est.mean:.6g}  std_error={est.std_error:.3g}  "
          f"paths={est.n_paths}  seed={args.seed}")
    return 0


def _cmd_gap_report(args, argv, started):
    prob = load_problem(args.problem)
    grid = pde.SpaceGrid.for_problem(prob, args.nx)
    report = pde.gap_report(prob, grid, pde.SchemeParams(cfl_safety=args.dt_safety))
    d = report.as_dict()
    _write_csv(args.out, list(d.keys()), [list(d.values())])
    _write_manifest(args, argv, started)
    print(json.dumps(d, indent=2))
    return 0


def _cmd_replay(args, argv, started):
    with open(args.manifest, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"a manifest must be a JSON object, got {type(manifest).__name__}")
    stored_argv, outputs = manifest.get("argv"), manifest.get("outputs")
    if not (isinstance(stored_argv, list) and stored_argv
            and all(isinstance(tok, str) for tok in stored_argv)):
        raise ValueError("manifest 'argv' must be a non-empty JSON list of strings")
    if not (isinstance(outputs, dict) and outputs):
        raise ValueError("manifest 'outputs' must be a non-empty JSON object")
    if len(outputs) != 1:
        raise ValueError(f"manifest 'outputs' must name one file, got {len(outputs)}")
    [(name, digest)] = outputs.items()
    if name != os.path.basename(name):
        raise ValueError(f"manifest output {name!r} is not a file the replayed run wrote")
    with tempfile.TemporaryDirectory() as tmp:
        # argparse keeps the last --out, however the stored argv spells its own
        code = dispatch(list(stored_argv) + ["--out", os.path.join(tmp, name)])
        if code != 0:
            print(f"replay run failed with exit code {code}")
            return 1
        new_digest = _sha256(os.path.join(tmp, name))
    ok = new_digest == digest
    print(f"{name}: {'MATCH' if ok else 'MISMATCH'} ({new_digest[:12]}...)")
    print("replay: outputs reproduce bitwise" if ok else "replay: DIGEST MISMATCH")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mixedvalue",
        description="Mixed-strategy values of zero-sum stochastic differential games",
    )
    sub = ap.add_subparsers(dest="subcommand")

    g = sub.add_parser("game", help="solve a matrix game from a CSV file")
    g.add_argument("--matrix", required=True)
    g.add_argument("--tol", type=float, default=1e-9)
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_game)

    h = sub.add_parser("hamiltonian", help="tabulate pure/relaxed Hamiltonians on a (p, A) grid")
    h.add_argument("--problem", required=True)
    h.add_argument("--t", type=float, default=0.0)
    h.add_argument("--x", type=float, default=0.0)
    h.add_argument("--y", type=float, default=0.0)
    h.add_argument("--p-min", type=float, default=-2.0)
    h.add_argument("--p-max", type=float, default=2.0)
    h.add_argument("--n-p", type=int, default=9)
    h.add_argument("--a-min", type=float, default=-2.0)
    h.add_argument("--a-max", type=float, default=2.0)
    h.add_argument("--n-a", type=int, default=9)
    h.add_argument("--tol", type=float, default=1e-9)
    h.add_argument("--out", required=True)
    h.set_defaults(func=_cmd_hamiltonian)

    sp = sub.add_parser("solve-pde", help="solve the HJBI equation backward in time")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--nx", type=int, required=True)
    sp.add_argument("--dt-safety", type=float, default=0.9)
    sp.add_argument("--mode", choices=["relaxed", "pure_lower", "pure_upper"],
                    default="relaxed")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_solve_pde)

    pp = sub.add_parser("solve-partition", help=(
        "backward sweep along a uniform partition with per-node strategies held over "
        "each subinterval; gives the relaxed V_h at every |pi|, not the paper's W^pi"))
    pp.add_argument("--problem", required=True)
    pp.add_argument("--nx", type=int, required=True)
    pp.add_argument("--n-steps", type=int, required=True)
    pp.add_argument("--orientation", choices=["lower", "upper", "both"], default="both")
    pp.add_argument("--dt-safety", type=float, default=0.9)
    pp.add_argument("--out", required=True)
    pp.set_defaults(func=_cmd_solve_partition)

    cv = sub.add_parser("converge", help=(
        "partition-refinement study of the per-node sweep against the PDE value; the "
        "sweep gives the relaxed V_h at every |pi|, not the paper's W^pi"))
    cv.add_argument("--problem", required=True)
    cv.add_argument("--nx", type=int, required=True)
    cv.add_argument("--meshes", default="2,4,8,16,32")
    cv.add_argument("--dt-safety", type=float, default=0.9)
    cv.add_argument("--out", required=True)
    cv.set_defaults(func=_cmd_converge)

    sim = sub.add_parser("simulate", help="Monte Carlo payoff estimate with randomized controls")
    sim.add_argument("--problem", required=True)
    sim.add_argument("--n-steps", type=int, required=True)
    sim.add_argument("--paths", type=int, required=True)
    sim.add_argument("--profile", default="uniform",
                     help="'uniform', 'saddle', or a JSON profile path")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--x0", default=None, help="comma-separated start state")
    sim.add_argument("--euler-substeps", type=int, default=4)
    sim.add_argument("--nx", type=int, default=101,
                     help="grid used to extract the saddle profile")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    gr = sub.add_parser("gap-report", help="pure vs mixed value gaps at t=0")
    gr.add_argument("--problem", required=True)
    gr.add_argument("--nx", type=int, required=True)
    gr.add_argument("--dt-safety", type=float, default=0.9)
    gr.add_argument("--out", required=True)
    gr.set_defaults(func=_cmd_gap_report)

    rp = sub.add_parser("replay", help="re-run a manifest and verify output digests")
    rp.add_argument("manifest")
    rp.set_defaults(func=_cmd_replay)
    return ap


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    started = time.time()
    try:
        return args.func(args, argv, started)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
