import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixedvalue import cli, pde
from mixedvalue import montecarlo as mc
from mixedvalue.partition import Partition, dpp_sweep
from mixedvalue.problem import load_problem

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
               "lip_phi": 1.5, "sup_phi": 1.0, "value_lip": 1.5},
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


def test_every_path_passes_through_simulate(tmp_path, monkeypatch):
    # bench/tracing.py counts montecarlo.paths at montecarlo.simulate: estimates
    # must keep calling it through the module, for every path they use
    paths = []
    inner = mc.simulate

    def counted(*args, **kwargs):
        ens = inner(*args, **kwargs)
        paths.append(ens.n_paths)
        return ens

    monkeypatch.setattr(mc, "simulate", counted)
    monkeypatch.setattr(mc, "_CHUNK_PATHS", 64)
    assert cli.dispatch(commands(tmp_path)["simulate"] + ["--out", str(tmp_path / "s.csv")]) == 0
    assert paths == [64, 64, 64, 8]  # --paths 200
    paths.clear()
    prob = load_problem("uv_drift")
    pi = Partition.uniform(prob.T, 2)
    mc.exploit(prob, pi, "player1", mc.StrategyProfile.uniform(prob, 2), [0.0], 150,
               mc.RandomizationDevice(0), nx=21)
    assert sum(paths) == 150


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
