import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mixedvalue import cli, dsl, pde
from mixedvalue import montecarlo as mc
from mixedvalue.games import pure_envelope, solve_games
from mixedvalue.hamiltonian import payoff_matrix
from mixedvalue.partition import Partition, dpp_sweep
from mixedvalue.problem import CATALOG, load_problem

from games3 import MALFORMED_PROBLEMS, TOO_DEEP_PHI, YZ_1D, uv_drift_with

# d=2 with a t-dependent drift and mixed games; kept tiny for the CSV tests
BILINEAR_2D = {
    "name": "bilinear_2d", "d": 2, "T": 0.5,
    "b": ["u1*v1", "0.5*(u1-v1)*cos(t)"],
    "sigma": [["1", "0"], ["0", "0.8"]],
    "f": "u1*v1 - 0.1*u1", "phi": "cos(x1)*cos(x2)",
    "U": {"points": [[-1.0], [0.0], [1.0]]}, "V": {"points": [[-1.0], [1.0]]},
    "domain": {"min": [-2.0, -2.0], "max": [2.0, 2.0]},
    "condition41_mode": "sigma_uncontrolled",
    "bounds": {"sup_b": 1.0, "sup_sigma": 1.0, "lip_y_f": 0.0, "sup_f": 1.1,
               "sup_phi": 1.0, "value_lip": 1.5},
}


def commands(tmp_path):
    matrix = tmp_path / "m.csv"
    np.savetxt(matrix, [[1.0, -1.0], [-1.0, 1.0]], delimiter=",")
    bilinear = problem_source(tmp_path, "bilinear_2d")
    return {
        "game": ["game", "--matrix", str(matrix)],
        "hamiltonian": ["hamiltonian", "--problem", "uv_drift", "--n-p", "3", "--n-a", "2"],
        "solve-pde": ["solve-pde", "--problem", "uv_drift", "--nx", "21"],
        "solve-partition": ["solve-partition", "--problem", "uv_drift", "--nx", "21",
                            "--n-steps", "2"],
        "simulate": ["simulate", "--problem", "uv_drift", "--n-steps", "2", "--paths", "200",
                     "--profile", "saddle", "--nx", "21", "--seed", "3"],
        "converge": ["converge", "--problem", "uv_drift", "--nx", "21", "--meshes", "1,2"],
        "gap-report": ["gap-report", "--problem", "uv_running_cost", "--nx", "21"],
        # t-dependent drift in d = 2: the coefficients come from schedule blocks
        "solve-pde-bilinear_2d": ["solve-pde", "--problem", bilinear, "--nx", "11"],
        "solve-partition-bilinear_2d": ["solve-partition", "--problem", bilinear, "--nx", "9",
                                        "--n-steps", "3"],
    }


@pytest.mark.parametrize("name", ["game", "hamiltonian", "solve-pde", "solve-partition",
                                  "simulate", "converge", "gap-report", "solve-pde-bilinear_2d",
                                  "solve-partition-bilinear_2d"])
def test_command_and_replay(tmp_path, capsys, name):
    out = tmp_path / f"{name}.out"
    assert cli.dispatch(commands(tmp_path)[name] + ["--out", str(out)]) == 0
    manifest = f"{out}.manifest.json"
    assert cli.dispatch(["replay", manifest]) == 0
    assert "outputs reproduce bitwise" in capsys.readouterr().out


# what each subcommand derives from its arguments, given commands(tmp_path)[name]
DERIVED = {
    "game": lambda prob: {},
    "hamiltonian": lambda prob: {},
    "solve-pde": lambda prob: {"n_steps": len(pde.solve(prob, pde.SpaceGrid.for_problem(prob, 21),
                                                       pde.SchemeParams())) - 1},
    "solve-partition": lambda prob: {"partition": Partition.uniform(prob.T, 2).times.tolist()},
    "converge": lambda prob: {"meshes": [1, 2]},
    "simulate": lambda prob: {"x0": [0.25]},
    "gap-report": lambda prob: {},
}


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_manifest_resolves_every_parsed_argument(tmp_path, name):
    out = tmp_path / "out"
    argv = commands(tmp_path)[name] + (["--x0=0.25"] if name == "simulate" else []) + [
        "--out", str(out)]
    assert cli.dispatch(argv) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
    parsed = {k: v for k, v in vars(cli._build_parser().parse_args(argv)).items()
              if k not in ("func", "subcommand", "out")}
    problem = parsed.get("problem")
    derived = DERIVED[name](load_problem(problem) if problem else None)
    assert manifest["resolved"] == {**parsed, **derived}
    assert manifest["subcommand"] == argv[0]
    assert manifest["argv"] == argv
    assert manifest["outputs"] == {"out": cli._sha256(str(out))}


@pytest.mark.parametrize("case", sorted(MALFORMED_PROBLEMS))
def test_solve_pde_rejects_problem_file_of_wrong_json_shape(tmp_path, capsys, case):
    # a problem file is outside input: a key of the wrong type is a usage error
    cfg, message = MALFORMED_PROBLEMS[case]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "v.csv"
    assert cli.dispatch(["solve-pde", "--problem", str(path), "--nx", "21",
                         "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(TOO_DEEP_PHI))
def test_solve_pde_rejects_expression_nested_too_deep(tmp_path, capsys, case):
    # these used to exit 1 with "runtime error: RecursionError"
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(uv_drift_with(phi=TOO_DEEP_PHI[case])), encoding="utf-8")
    out = tmp_path / "v.csv"
    assert cli.dispatch(["solve-pde", "--problem", str(path), "--nx", "21",
                         "--out", str(out)]) == 2
    assert "error: cannot parse phi: " in capsys.readouterr().err
    assert not out.exists()


_ARGV_MESSAGE = "manifest 'argv' must be a non-empty JSON list of strings"
_OUTPUTS_MESSAGE = "manifest 'outputs' must be a non-empty JSON object"
# a manifest of game, edited: case -> (edit, message)
MALFORMED_MANIFESTS = {
    "array": (lambda m: [m["argv"]], "a manifest must be a JSON object, got list"),
    "no_argv": (lambda m: {"outputs": m["outputs"]}, _ARGV_MESSAGE),
    "argv_empty": (lambda m: {**m, "argv": []}, _ARGV_MESSAGE),
    "argv_string": (lambda m: {**m, "argv": " ".join(m["argv"])}, _ARGV_MESSAGE),
    "argv_of_a_number": (lambda m: {**m, "argv": ["game", 5]}, _ARGV_MESSAGE),
    "outputs_empty": (lambda m: {**m, "outputs": {}}, _OUTPUTS_MESSAGE),
    "outputs_array": (lambda m: {**m, "outputs": list(m["outputs"])}, _OUTPUTS_MESSAGE),
    "outputs_two": (lambda m: {**m, "outputs": {**m["outputs"], "h.json": "0" * 64}},
                    "manifest 'outputs' must name one file, got 2"),
    # the matrix file, which matches its digest, is not what the re-run wrote
    "output_elsewhere": (lambda m: {**m, "outputs": {m["argv"][2]: cli._sha256(m["argv"][2])}},
                         "is not a file the replayed run wrote"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_replay_rejects_manifest_without_a_run_to_check(tmp_path, capsys, case):
    # each of these used to re-run the command and report that outputs it
    # did not check reproduced bitwise, or to end in a runtime error
    edit, message = MALFORMED_MANIFESTS[case]
    manifest = {"argv": commands(tmp_path)["game"] + ["--out", str(tmp_path / "g.json")],
                "outputs": {"g.json": "0" * 64}}
    path = tmp_path / "g.json.manifest.json"
    path.write_text(json.dumps(edit(manifest)), encoding="utf-8")
    assert cli.dispatch(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "replay:" not in captured.out


@pytest.mark.parametrize("spelling", [["--out={}"], ["--ou", "{}"]], ids=["equals", "abbreviated"])
def test_replay_leaves_the_original_run_alone(tmp_path, capsys, spelling):
    # replay used to redirect only a literal --out token: these spellings
    # re-ran into the original output and manifest
    out = tmp_path / "v.csv"
    argv = ["solve-pde", "--problem", "uv_drift", "--nx", "21"]
    assert cli.dispatch(argv + [tok.format(out) for tok in spelling]) == 0
    manifest = Path(f"{out}.manifest.json")
    before = out.read_bytes(), manifest.read_bytes()
    assert cli.dispatch(["replay", str(manifest)]) == 0
    assert "v.csv: MATCH" in capsys.readouterr().out
    assert (out.read_bytes(), manifest.read_bytes()) == before


def simulated_chunks(tmp_path, monkeypatch, workers):
    """Paths per montecarlo.simulate call of ``cli simulate --paths 200`` and of exploit.

    bench/tracing.py counts montecarlo.paths at montecarlo.simulate: estimates
    must keep calling it through the module, for every path they use.
    """
    paths = []
    inner = mc.simulate

    def counted(*args, **kwargs):
        ens = inner(*args, **kwargs)
        paths.append(ens.n_paths)
        return ens

    monkeypatch.setattr(mc, "simulate", counted)
    monkeypatch.setattr(mc, "_CHUNK_PATHS", 64)
    monkeypatch.setattr(mc, "_WORKERS", workers)
    assert cli.dispatch(commands(tmp_path)["simulate"] + ["--out", str(tmp_path / "s.csv")]) == 0
    cli_paths = list(paths)
    paths.clear()
    prob = load_problem("uv_drift")
    pi = Partition.uniform(prob.T, 2)
    mc.exploit(prob, pi, "player1", mc.StrategyProfile.uniform(prob, 2), [0.0], 150,
               mc.RandomizationDevice(0), nx=21)
    return cli_paths, paths


def test_every_path_passes_through_simulate(tmp_path, monkeypatch):
    cli_paths, exploit_paths = simulated_chunks(tmp_path, monkeypatch, 1)
    assert cli_paths == [64, 64, 64, 8]  # --paths 200
    assert sum(exploit_paths) == 150


def test_every_path_passes_through_simulate_two_workers(tmp_path, monkeypatch):
    # 64 paths in flight: each worker takes chunks of 32, finished in any order
    cli_paths, exploit_paths = simulated_chunks(tmp_path, monkeypatch, 2)
    assert sorted(cli_paths, reverse=True) == [32] * 6 + [8]
    assert sorted(exploit_paths, reverse=True) == [32] * 4 + [22]


def test_simulate_rejects_bad_seed_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("dpp_sweep ran")

    monkeypatch.setattr(cli, "dpp_sweep", no_sweep)
    argv = commands(tmp_path)["simulate"]
    argv[argv.index("--seed") + 1] = "-1"
    out = tmp_path / "s.csv"
    assert cli.dispatch(argv + ["--out", str(out)]) == 2
    assert "error: seed must be an int in [0, 2**128), got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("x0", ["nan", "inf", "-inf"])
def test_simulate_rejects_non_finite_x0(tmp_path, capsys, x0):
    argv = commands(tmp_path)["simulate"] + [f"--x0={x0}"]
    out = tmp_path / "s.csv"
    assert cli.dispatch(argv + ["--out", str(out)]) == 2
    assert f"error: x0 must be finite, got [{float(x0)}]" in capsys.readouterr().err
    assert not out.exists()


# profile files, on two subintervals, that do not fit the game: (problem, profile, error)
PROFILES_OFF_THE_GAME = {
    "three_u_controls": ("uv_drift", {"mode": "openloop", "u_weights": [[1 / 3] * 3] * 2,
                                      "v_weights": [[0.5, 0.5]] * 2},
                         "u controls: the profile has 3, the game has 2"),
    "one_u_control": ("uv_drift", {"mode": "openloop", "u_weights": [[1.0]] * 2,
                                   "v_weights": [[0.5, 0.5]] * 2},
                      "u controls: the profile has 1, the game has 2"),
    "feedback_in_2d": ("bilinear_2d", {"mode": "feedback", "u_weights": [[[1 / 3] * 3] * 3] * 2,
                                       "v_weights": [[[0.5, 0.5]] * 3] * 2,
                                       "cell_axis": [-1.0, 0.0, 1.0]},
                       "feedback profiles are supported for d=1 only, the game has d=2"),
    # and files that are no profile at all
    "no_mode": ("uv_drift", {"u_weights": [[0.5, 0.5]] * 2, "v_weights": [[0.5, 0.5]] * 2},
                "profile missing keys: ['mode']"),
    "array": ("uv_drift", [[0.5, 0.5]] * 2, "a profile must be a JSON object, got list"),
    # json reads NaN; it used to pass the probability check and draw control 0 on every path
    "nan_weight": ("uv_drift", {"mode": "openloop", "u_weights": [[math.nan, 1.0]] * 2,
                                "v_weights": [[0.5, 0.5]] * 2},
                   "u weights must be probability vectors"),
}


@pytest.mark.parametrize("case", sorted(PROFILES_OFF_THE_GAME))
def test_simulate_rejects_profile_off_the_game(tmp_path, capsys, case):
    # a profile file is outside input: one that is malformed or does not fit
    # the game is a usage error, not a runtime failure
    problem, profile, message = PROFILES_OFF_THE_GAME[case]
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile), encoding="utf-8")
    out = tmp_path / "s.csv"
    argv = ["simulate", "--problem", problem_source(tmp_path, problem), "--n-steps", "2",
            "--paths", "200", "--profile", str(path), "--out", str(out)]
    assert cli.dispatch(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sup_b", [-5.0, float("nan")], ids=["negative", "nan"])
def test_solve_pde_rejects_bad_declared_bound(tmp_path, capsys, sup_b):
    # a problem file is outside input: a bound the CFL limit cannot use is a usage error
    path = tmp_path / "bad_bound.json"
    path.write_text(json.dumps({**CATALOG["uv_drift"],
                                "bounds": {**CATALOG["uv_drift"]["bounds"], "sup_b": sup_b}}),
                    encoding="utf-8")
    out = tmp_path / "v.csv"
    argv = ["solve-pde", "--problem", str(path), "--nx", "21", "--out", str(out)]
    assert cli.dispatch(argv) == 2
    assert "error: bound sup_b must be finite and non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("1.0,nan\n-1.0,1.0\n", "non-finite payoff nan at entry (0, 1) of game 0"),
    ("", "expected an (m, k, n) batch of payoff matrices, got shape (0, 1, 1)"),
], ids=["nan", "empty"])
def test_game_rejects_malformed_matrix(tmp_path, capsys, text, message):
    # a matrix file is outside input: one that is no game is a usage error
    matrix = tmp_path / "m.csv"
    matrix.write_text(text, encoding="utf-8")
    out = tmp_path / "g.json"
    with warnings.catch_warnings():
        # as under python -W error: a warning would end the command with exit 1
        warnings.simplefilter("error")
        assert cli.dispatch(["game", "--matrix", str(matrix), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_game_rejects_tol_not_finite_and_positive(tmp_path, capsys, tol):
    # a NaN tolerance would fail every certificate and leave the game to an
    # unchecked simplex
    out = tmp_path / "g.json"
    argv = commands(tmp_path)["game"] + ["--tol", tol, "--out", str(out)]
    assert cli.dispatch(argv) == 2
    assert "error: tol must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["solve-pde", "simulate"])
@pytest.mark.parametrize("key", ["T", "horizon"])
def test_rejects_non_finite_horizon(tmp_path, capsys, name, key):
    # a problem file is outside input: a horizon of NaN is a usage error
    cfg = {k: v for k, v in CATALOG["uv_drift"].items() if k != "T"}
    path = tmp_path / "nan_horizon.json"
    path.write_text(json.dumps({**cfg, key: float("nan")}), encoding="utf-8")
    assert "NaN" in path.read_text(encoding="utf-8")
    argv = commands(tmp_path)[name]
    argv[argv.index("--problem") + 1] = str(path)
    out = tmp_path / "v.csv"
    assert cli.dispatch(argv + ["--out", str(out)]) == 2
    assert "error: horizon must be finite and positive, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,count", [("--n-p", "0"), ("--n-a", "0"), ("--n-p", "-1")])
def test_hamiltonian_rejects_an_empty_axis(tmp_path, capsys, flag, count):
    # an axis of no points used to write a header-only table and a manifest
    argv = commands(tmp_path)["hamiltonian"]
    argv[argv.index(flag) + 1] = count
    out = tmp_path / "h.csv"
    assert cli.dispatch(argv + ["--out", str(out)]) == 2
    assert "error: --n-p and --n-a must be at least 1" in capsys.readouterr().err
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()


def test_simulate_rejects_one_path(tmp_path, capsys):
    # one path has no standard error; it used to print std_error=0
    argv = commands(tmp_path)["simulate"]
    argv[argv.index("--paths") + 1] = "1"
    out = tmp_path / "s.csv"
    assert cli.dispatch(argv + ["--out", str(out)]) == 2
    assert "error: need n_paths >= 2" in capsys.readouterr().err
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()


def hamiltonian_table(tmp_path, monkeypatch, argv):
    """Rows of ``cli hamiltonian`` and the dsl.evaluate calls it made after loading."""
    calls = []
    load, evaluate = cli.load_problem, dsl.evaluate
    out = tmp_path / "h.csv"
    with monkeypatch.context() as patch:
        def counted_after_load(source):
            prob = load(source)
            patch.setattr(dsl, "evaluate", lambda e, bnd: calls.append(e) or evaluate(e, bnd))
            return prob

        patch.setattr(cli, "load_problem", counted_after_load)
        assert cli.dispatch(["hamiltonian"] + argv + ["--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [{k: float(v) for k, v in row.items()} for row in rows], len(calls)


def test_hamiltonian_evaluates_each_coefficient_once(tmp_path, monkeypatch):
    # the default 9 x 9 table on uv_drift: b, sigma and f once each, not per point
    rows, calls = hamiltonian_table(tmp_path, monkeypatch, ["--problem", "uv_drift"])
    assert len(rows) == 81
    assert calls == 3


def test_hamiltonian_table_of_a_y_z_game(tmp_path, monkeypatch):
    path = tmp_path / "yz_1d.json"
    path.write_text(json.dumps(YZ_1D), encoding="utf-8")
    prob = load_problem(str(path))
    base = ["--problem", str(path), "--t", "0.3", "--x", "-1.2", "--n-p", "5", "--n-a", "3"]
    tables = {}
    for y in (0.0, 0.7):
        rows, calls = hamiltonian_table(tmp_path, monkeypatch, base + ["--y", str(y)])
        assert calls == 1 + 1 + 1  # d + d^2 + 1 in d = 1
        assert len(rows) == 15
        for row in rows:
            # each row is a stack of one solved alone
            ent = payoff_matrix(prob, 0.3, [-1.2], y, [[row["p"]]], [[[row["A"]]]])
            sol = solve_games(ent)
            assert row["h_minus"] == pure_envelope(ent, upper=False)[0]
            assert row["h_plus"] == pure_envelope(ent, upper=True)[0]
            assert (row["h_relaxed"], row["gap"]) == (sol.value[0], sol.gap[0])
        tables[y] = rows
    # f = ... - 0.2 y shifts every entry, and so the relaxed value, by -0.14
    for r0, r1 in zip(tables[0.0], tables[0.7]):
        assert (r0["p"], r0["A"]) == (r1["p"], r1["A"])
        assert r1["h_relaxed"] == pytest.approx(r0["h_relaxed"] - 0.14, abs=1e-9)


def test_threads_flag_is_gone(tmp_path, capsys):
    out = tmp_path / "v.csv"
    assert cli.dispatch(["--threads", "2"] + commands(tmp_path)["solve-pde"]
                        + ["--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def problem_source(tmp_path, name):
    if name != "bilinear_2d":
        return name
    path = tmp_path / "bilinear_2d.json"
    path.write_text(json.dumps(BILINEAR_2D), encoding="utf-8")
    return str(path)


def csv_writer_bytes(path, header, levels_by_lead, grid):
    """Level CSV as csv.writer writes it over one tuple of numpy scalars per node."""
    rows = []
    for lead, levels in levels_by_lead:
        for fld in levels:
            vals = fld.values
            if grid.d == 1:
                for i, x in enumerate(grid.axes[0]):
                    rows.append(lead + (fld.t, x, vals[i]))
            else:
                for i, x1 in enumerate(grid.axes[0]):
                    for j, x2 in enumerate(grid.axes[1]):
                        rows.append(lead + (fld.t, x1, x2, vals[i, j]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path.read_bytes()


class TestLevelCsv:
    @pytest.mark.parametrize("name,nx", [("uv_drift", 21), ("heat_cosine", 17),
                                         ("bilinear_2d", 11)])
    def test_solve_pde_bytes_match_csv_writer(self, tmp_path, name, nx):
        source = problem_source(tmp_path, name)
        out = tmp_path / "v.csv"
        assert cli.dispatch(["solve-pde", "--problem", source, "--nx", str(nx),
                             "--out", str(out)]) == 0
        prob = load_problem(source)
        grid = pde.SpaceGrid.for_problem(prob, nx)
        levels = pde.solve(prob, grid, pde.SchemeParams())
        header = ["t", "x1", "value"] if grid.d == 1 else ["t", "x1", "x2", "value"]
        want = csv_writer_bytes(tmp_path / "ref.csv", header, [((), levels)], grid)
        assert out.read_bytes() == want
        assert want.count(b"\r\n") == 1 + len(levels) * int(np.prod(grid.shape))

    @pytest.mark.parametrize("name,nx", [("uv_running_cost", 21), ("bilinear_2d", 9)])
    def test_solve_partition_bytes_match_csv_writer(self, tmp_path, name, nx):
        source = problem_source(tmp_path, name)
        out = tmp_path / "w.csv"
        assert cli.dispatch(["solve-partition", "--problem", source, "--nx", str(nx),
                             "--n-steps", "3", "--orientation", "both",
                             "--out", str(out)]) == 0
        prob = load_problem(source)
        grid = pde.SpaceGrid.for_problem(prob, nx)
        pi = Partition.uniform(prob.T, 3)
        runs = [((o,), dpp_sweep(prob, grid, pi, pde.SchemeParams(), o).levels)
                for o in ("lower", "upper")]
        header = (["orientation", "t", "x1", "value"] if grid.d == 1
                  else ["orientation", "t", "x1", "x2", "value"])
        assert out.read_bytes() == csv_writer_bytes(tmp_path / "ref.csv", header, runs, grid)


@pytest.mark.parametrize("b", [BILINEAR_2D["b"], ["u1*v1 - 0.1*x1", "0.5*(u1-v1)*cos(t) + 0.1*x2"]],
                         ids=["x_free", "x_dependent"])
def test_solve_pde_digest_independent_of_blas_threads(tmp_path, b):
    # the stencil's matrix products run in BLAS: a replayed manifest must
    # match whatever thread count the BLAS library is given.  At nx = 81 the
    # products are large enough for OpenBLAS to split them across threads.
    cfg = {**BILINEAR_2D, "T": 0.01, "b": b,
           "bounds": {**BILINEAR_2D["bounds"], "sup_b": 1.2}}
    source = tmp_path / "problem.json"
    source.write_text(json.dumps(cfg), encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}" / "v.csv"
        out.parent.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-m", "mixedvalue.cli", "solve-pde", "--problem",
                        str(source), "--nx", "81", "--out", str(out)],
                       env=env, check=True, timeout=300)
        manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
        digests.append(manifest["outputs"]["v.csv"])
    assert digests[0] == digests[1]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_simulate_digest_independent_of_core_count(tmp_path):
    # Monte Carlo chunks run on one thread per usable core: a replayed
    # manifest must match whatever cores the process may use.  One child is
    # pinned to a single core, the other keeps every usable core.
    one_core = min(os.sched_getaffinity(0))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    digests = []
    for label, pin in (("one", lambda: os.sched_setaffinity(0, {one_core})), ("all", None)):
        out = tmp_path / label / "s.csv"
        out.parent.mkdir()
        # 50 000 paths are several chunks on every worker
        subprocess.run([sys.executable, "-m", "mixedvalue.cli", "simulate", "--problem",
                        "uv_drift", "--profile", "saddle", "--n-steps", "4", "--paths", "50000",
                        "--nx", "41", "--seed", "5", "--x0=0.25", "--out", str(out)],
                       env=env, check=True, timeout=300, preexec_fn=pin)
        manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
        digests.append(manifest["outputs"]["s.csv"])
    assert digests[0] == digests[1]
