import numpy as np
import pytest

from mixedvalue import cli


def commands(tmp_path):
    matrix = tmp_path / "m.csv"
    np.savetxt(matrix, [[1.0, -1.0], [-1.0, 1.0]], delimiter=",")
    return {
        "game": ["game", "--matrix", str(matrix)],
        "hamiltonian": ["hamiltonian", "--problem", "uv_drift", "--n-p", "3", "--n-a", "2"],
        "solve-pde": ["solve-pde", "--problem", "uv_drift", "--nx", "21"],
        "solve-partition": ["solve-partition", "--problem", "uv_drift", "--nx", "21",
                            "--n-steps", "2"],
        "simulate": ["simulate", "--problem", "uv_drift", "--n-steps", "2", "--paths", "200",
                     "--profile", "saddle", "--nx", "21", "--seed", "3"],
    }


@pytest.mark.parametrize("name", ["game", "hamiltonian", "solve-pde", "solve-partition",
                                  "simulate"])
def test_command_and_replay(tmp_path, capsys, name):
    out = tmp_path / f"{name}.out"
    assert cli.dispatch(commands(tmp_path)[name] + ["--out", str(out)]) == 0
    manifest = f"{out}.manifest.json"
    assert cli.dispatch(["replay", manifest]) == 0
    assert "outputs reproduce bitwise" in capsys.readouterr().out


def test_threads_flag_is_gone(tmp_path, capsys):
    out = tmp_path / "v.csv"
    assert cli.dispatch(["--threads", "2"] + commands(tmp_path)["solve-pde"]
                        + ["--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()
