import copy
import itertools
import json
import math
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mixedvalue import dsl
from mixedvalue import montecarlo as mc
from mixedvalue.partition import Partition, dpp_sweep
from mixedvalue.pde import SchemeParams, SpaceGrid
from mixedvalue.problem import CATALOG, load_problem

import games3


def variant(base, **over):
    cfg = copy.deepcopy(CATALOG[base])
    for k, v in over.items():
        if isinstance(v, dict) and isinstance(cfg.get(k), dict):
            cfg[k].update(v)
        else:
            cfg[k] = v
    return load_problem(cfg)


@pytest.fixture(scope="module")
def uv_cost():
    return load_problem("uv_running_cost")


@pytest.fixture(scope="module")
def heat():
    return load_problem("heat_cosine")


PI8 = Partition.uniform(1.0, 8)


def point_mass(prob, n_subintervals, u_idx, v_idx) -> mc.StrategyProfile:
    """Open-loop profile playing controls u_idx and v_idx on every subinterval."""
    return mc.StrategyProfile("openloop", np.eye(prob.u_grid.n)[[u_idx] * n_subintervals],
                              np.eye(prob.v_grid.n)[[v_idx] * n_subintervals])


def profile_json(prof) -> dict:
    """A profile's JSON form, written and read back as text."""
    data = {"mode": prof.mode, "u_weights": prof.u_weights.tolist(),
            "v_weights": prof.v_weights.tolist()}
    if prof.cell_axis is not None:
        data["cell_axis"] = prof.cell_axis.tolist()
    return json.loads(json.dumps(data))


def skew_2d():
    """d=2 with state- and control-dependent skew sigma and t-dependent drift."""
    return load_problem({
        "name": "skew_controlled_2d", "d": 2, "T": 1.0,
        "b": ["u1*v1 - 0.1*x1", "0.5*(u1-v1)*cos(t)"],
        "sigma": [["1 + 0.1*u1*cos(x2)", "0.2"], ["0.1*v1", "0.8"]],
        "f": "u1*v1 + 0.05*x2", "phi": "cos(x1)*cos(x2)",
        "U": {"points": [[-1.0], [0.0], [1.0]]}, "V": {"points": [[-1.0], [1.0]]},
        "domain": {"min": [-2.0, -2.0], "max": [2.0, 2.0]},
        "condition41_mode": "f_linear_in_z",
        "bounds": {"sup_b": 1.2, "sup_sigma": 1.1, "lip_y_f": 0.0, "sup_f": 1.1,
                   "sup_phi": 1.0, "value_lip": 1.5},
    })


# the benchmark's d = 2 game: bilinear and t-dependent drift, constant skew sigma
BILINEAR_DRIFT_2D = {
    "name": "bilinear_drift_2d", "d": 2, "T": 1.0,
    "b": ["u1*v1", "0.5*(u1-v1)*cos(t)"],
    "sigma": [["1", "0.2"], ["0.1", "0.8"]],
    "f": "0", "phi": "cos(x1)*cos(x2)",
    "U": {"points": [[-1.0], [1.0]]}, "V": {"points": [[-1.0], [1.0]]},
    "domain": {"min": [-6.0, -6.0], "max": [6.0, 6.0], "boundary": "clamp"},
    "condition41_mode": "sigma_uncontrolled",
    "bounds": {"sup_b": 1.0, "sup_sigma": 1.0, "lip_y_f": 0.0, "sup_f": 0.0,
               "sup_phi": 1.0, "value_lip": 1.0},
}


def old_box_muller(u):
    """Box-Muller through fresh arrays, the formula the in-place one replaced."""
    u1 = np.clip(u[..., 0::2], 1e-300, 1.0)
    u2 = u[..., 1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty_like(u)
    out[..., 0::2] = r * np.cos(theta)
    out[..., 1::2] = r * np.sin(theta)
    return out


class TestRandomizationDevice:
    def test_reproducible_from_seed(self):
        a = mc.RandomizationDevice(42).control_uniforms(3, 1, 0, 100)
        b = mc.RandomizationDevice(42).control_uniforms(3, 1, 0, 100)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        d = mc.RandomizationDevice(42)
        u1 = d.control_uniforms(0, 1, 0, 1000)
        u2 = d.control_uniforms(0, 2, 0, 1000)
        u3 = d.control_uniforms(1, 1, 0, 1000)
        assert not np.array_equal(u1, u2)
        assert not np.array_equal(u1, u3)
        # and are uncorrelated
        assert abs(np.corrcoef(u1, u2)[0, 1]) <= 0.1
        assert abs(np.corrcoef(u1, u3)[0, 1]) <= 0.1

    def test_path_slices_bitwise(self):
        d = mc.RandomizationDevice(7)
        full = d.control_uniforms(2, 1, 0, 500)
        parts = np.concatenate([
            d.control_uniforms(2, 1, 0, 123),
            d.control_uniforms(2, 1, 123, 377),
        ])
        assert np.array_equal(full, parts)

    def test_normal_slices_bitwise(self):
        d = mc.RandomizationDevice(7)
        full = d.brownian_normals(1, 0, 200, 5, 2)
        parts = np.concatenate([
            d.brownian_normals(1, 0, 61, 5, 2),
            d.brownian_normals(1, 61, 139, 5, 2),
        ])
        assert np.array_equal(full, parts)

    def test_normals_are_standard(self):
        z = mc.RandomizationDevice(1).brownian_normals(0, 0, 100_000, 1, 1).ravel()
        assert abs(z.mean()) <= 0.02
        assert abs(z.std() - 1.0) <= 0.02

    @pytest.mark.parametrize("seed", [-1, 2**128, 1.5, True, "3", None])
    def test_rejects_seed_outside_key_range(self, seed):
        with pytest.raises(ValueError, match=r"seed must be an int in \[0, 2\*\*128\), got "
                           + re.escape(repr(seed))):
            mc.RandomizationDevice(seed)

    @pytest.mark.parametrize("seed", [0, 2**128 - 1, np.int64(5), np.uint64(2**64 - 1)])
    def test_accepts_every_key(self, seed):
        dev = mc.RandomizationDevice(seed)
        assert type(dev.seed) is int and dev.seed == seed
        assert dev.control_uniforms(0, 1, 0, 3).shape == (3,)

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_box_muller_in_place_bitwise(self, blocks):
        u = np.random.default_rng(blocks).random((1000, 4 * blocks))
        # u1 = 0 is clipped to 1e-300; u2 next to 1 and at 0
        u[0, 0], u[1, 0], u[2, 1], u[3, 1] = 0.0, 5e-324, np.nextafter(1.0, 0.0), 0.0
        want = old_box_muller(u)
        got = mc._box_muller(u)
        assert got is u
        assert got.tobytes() == want.tobytes()

    def test_control_uniforms_own_their_memory(self):
        u = mc.RandomizationDevice(3).control_uniforms(0, 1, 5, 100)
        assert u.base is None and u.flags.c_contiguous and u.nbytes == 800
        raw = mc.RandomizationDevice(3)._raw_blocks(mc._ROLE_PLAYER1, 0, 5, 100, 1)
        assert u.tobytes() == raw[:, 0].tobytes()


class TestStrategyProfile:
    def test_uniform(self, uv_cost):
        prof = mc.StrategyProfile.uniform(uv_cost, 4)
        assert prof.u_weights.shape == (4, 2)
        assert np.all(prof.u_weights == 0.5)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            mc.StrategyProfile("openloop", np.array([[0.7, 0.7]]), np.array([[0.5, 0.5]]))

    def test_feedback_lookup_uses_nearest_cell(self):
        axis = np.array([-1.0, 0.0, 1.0])
        uw = np.zeros((1, 3, 2))
        uw[0, 0] = [1.0, 0.0]
        uw[0, 1] = [0.5, 0.5]
        uw[0, 2] = [0.0, 1.0]
        prof = mc.StrategyProfile("feedback", uw, uw.copy(), cell_axis=axis)
        x = np.array([[-0.9], [0.1], [2.0]])
        got = prof.weights_at(0, 1, x)
        assert np.array_equal(got, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])

    def test_cells_at_shared_by_both_players(self):
        axis = np.array([-1.0, 0.0, 1.0])
        uw = np.array([[[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]])
        vw = np.array([[[0.0, 1.0], [0.25, 0.75], [1.0, 0.0]]])
        prof = mc.StrategyProfile("feedback", uw, vw, cell_axis=axis)
        x = np.array([[-0.9], [-0.5], [0.1], [0.5], [2.0], [-3.0]])
        cells = prof.cells_at(x)
        # ties go to the left node
        assert np.array_equal(cells, [0, 0, 1, 1, 2, 0])
        assert np.array_equal(prof.weights_at(0, 1, x), uw[0][cells])
        assert np.array_equal(prof.weights_at(0, 2, x), vw[0][cells])
        with pytest.raises(ValueError, match="feedback"):
            mc.StrategyProfile("openloop", uw[0], vw[0]).cells_at(x)

    def test_json_round_trip(self, uv_cost):
        prof = mc.StrategyProfile.uniform(uv_cost, 3)
        back = mc.StrategyProfile.from_jsonable(profile_json(prof))
        assert back.mode == "openloop" and back.cell_axis is None
        assert np.array_equal(back.u_weights, prof.u_weights)

    def test_from_sweep(self, uv_cost):
        grid = SpaceGrid.for_problem(uv_cost, 31)
        res = dpp_sweep(uv_cost, grid, Partition.uniform(1.0, 4), SchemeParams(),
                        "lower", record_strategies=True)
        prof = mc.StrategyProfile.from_sweep(res, grid)
        assert prof.mode == "feedback"
        assert prof.n_subintervals == 4
        w = prof.weights_at(2, 1, np.array([[0.0], [3.0]]))
        assert np.allclose(w, 0.5, atol=1e-9)
        # the cell axis is the sweep's work axis, kept as it is, and a
        # profile survives its JSON round trip bitwise
        assert np.array_equal(prof.cell_axis, grid.axes[0][1:-1])
        assert np.array_equal(prof.u_weights, res.mu) and np.array_equal(prof.v_weights, res.nu)
        back = mc.StrategyProfile.from_jsonable(profile_json(prof))
        for name in ("cell_axis", "u_weights", "v_weights"):
            assert getattr(back, name).tobytes() == getattr(prof, name).tobytes()

    def test_from_sweep_rejects_another_grid(self):
        # a grid one node coarser than the sweep's would put the cells at
        # other nodes: its cell axis would start at -7.0, the work nodes at -6.861
        prob = load_problem("uv_drift")
        res = dpp_sweep(prob, SpaceGrid.for_problem(prob, 102), Partition.uniform(1.0, 2),
                        SchemeParams(), "lower", record_strategies=True)
        with pytest.raises(ValueError, match=re.escape("(102,)") + ".*" + re.escape("(101,)")):
            mc.StrategyProfile.from_sweep(res, SpaceGrid.for_problem(prob, 101))

    @pytest.mark.parametrize("axis", [[-1.0, 0.0, 0.0, 2.0], [2.0, 0.0, 1.0, -1.0],
                                      [-1.0, 0.0, 1.0, math.inf], [-1.0, math.nan, 1.0, 2.0]])
    def test_rejects_cell_axis_not_strictly_increasing(self, axis):
        # nearest-node cells, and searchsorted in cells_at, need a sorted axis
        uw = np.full((1, 4, 2), 0.5)
        data = {"mode": "feedback", "u_weights": uw.tolist(), "v_weights": uw.tolist(),
                "cell_axis": axis}
        with pytest.raises(ValueError, match="cell_axis must be finite and strictly increasing"):
            mc.StrategyProfile.from_jsonable(data)
        data["cell_axis"] = [-1.0, 0.0, 1.0, 2.0]
        assert mc.StrategyProfile.from_jsonable(data).cell_axis.tolist() == data["cell_axis"]


# every route that draws paths, on 10 paths from the origin of a device that may not draw
ROUTES = {
    "simulate": lambda prob, pi, profile: mc.simulate(prob, pi, profile, [0.0] * prob.d, 10, 1,
                                                      NoDrawDevice(0)),
    "estimate": lambda prob, pi, profile: mc.estimate(prob, pi, profile, [0.0] * prob.d, 10, 1,
                                                      NoDrawDevice(0)),
    "exploit": lambda prob, pi, profile: mc.exploit(prob, pi, "player1", profile,
                                                    [0.0] * prob.d, 10, NoDrawDevice(0), nx=11),
}

# profile files, on two subintervals, that do not fit the game they are played on:
# (problem, profile, error)
PROFILES_OFF_THE_GAME = {
    "three_u_controls": ("uv_drift", {"mode": "openloop", "u_weights": [[1 / 3] * 3] * 2,
                                      "v_weights": [[0.5, 0.5]] * 2},
                         "u controls: the profile has 3, the game has 2"),
    "one_u_control": ("uv_drift", {"mode": "openloop", "u_weights": [[1.0]] * 2,
                                   "v_weights": [[0.5, 0.5]] * 2},
                      "u controls: the profile has 1, the game has 2"),
    "feedback_in_2d": (BILINEAR_DRIFT_2D, {"mode": "feedback", "u_weights": [[[0.5, 0.5]] * 3] * 2,
                                           "v_weights": [[[0.5, 0.5]] * 3] * 2,
                                           "cell_axis": [-1.0, 0.0, 1.0]},
                       "feedback profiles are supported for d=1 only, the game has d=2"),
}


class TestSimulate:
    def test_no_noise_no_drift_paths_constant(self):
        frozen = variant("uv_running_cost", name="frozen", sigma=[["0"]],
                         bounds={"sup_sigma": 0.0})
        ens = mc.simulate(frozen, PI8, mc.StrategyProfile.uniform(frozen, 8),
                          [0.5], 100, 2, mc.RandomizationDevice(1))
        assert np.all(ens.states == 0.5)
        # f = u v accrues Δt_j u_j v_j on every subinterval; each path's sum
        # of eight ±1/8 terms is 0 with probability C(8,4)/2^8, so the cost
        # is checked against the recorded draws (dyadic, hence bitwise)
        u = frozen.u_grid.points[ens.u_indices, 0]
        v = frozen.v_grid.points[ens.v_indices, 0]
        expected = (np.diff(PI8.times) * u * v).sum(axis=1)
        assert np.array_equal(ens.running_cost, expected)
        assert np.any(ens.running_cost != 0)

    def test_uniform_play_running_cost_centered(self, uv_cost):
        ens = mc.simulate(uv_cost, PI8, mc.StrategyProfile.uniform(uv_cost, 8),
                          [0.0], 100_000, 2, mc.RandomizationDevice(12345))
        est = mc.estimate_payoff(ens, uv_cost)
        assert abs(est.mean) <= 3 * est.std_error

    def test_draws_conditionally_independent(self, uv_cost):
        ens = mc.simulate(uv_cost, PI8, mc.StrategyProfile.uniform(uv_cost, 8),
                          [0.0], 40_000, 1, mc.RandomizationDevice(3))
        n = ens.n_paths
        for j in range(8):
            corr = np.corrcoef(ens.u_indices[:, j], ens.v_indices[:, j])[0, 1]
            assert abs(corr) <= 3.0 / math.sqrt(n)

    def test_bitwise_reproducible(self, uv_cost):
        prof = mc.StrategyProfile.uniform(uv_cost, 8)
        e1 = mc.simulate(uv_cost, PI8, prof, [0.0], 500, 4, mc.RandomizationDevice(42))
        e2 = mc.simulate(uv_cost, PI8, prof, [0.0], 500, 4, mc.RandomizationDevice(42))
        assert np.array_equal(e1.states, e2.states)
        assert np.array_equal(e1.u_indices, e2.u_indices)

    def test_point_mass_profile_matches_direct_euler(self, uv_cost):
        """Second, independently written simulator as a regression oracle."""
        prof = point_mass(uv_cost, 8, 1, 0)
        dev = mc.RandomizationDevice(11)
        ens = mc.simulate(uv_cost, PI8, prof, [0.2], 400, 4, dev)
        assert np.all(ens.u_indices == 1)
        assert np.all(ens.v_indices == 0)
        # direct Euler for dX = 0 dt + 1 dB with the same increments
        x = np.full(400, 0.2)
        oracle = mc.RandomizationDevice(11)
        for j in range(8):
            z = oracle.brownian_normals(j, 0, 400, 4, 1)
            for s in range(4):
                x = x + math.sqrt(1.0 / 32.0) * z[:, s, 0]
        assert np.max(np.abs(ens.states[:, -1, 0] - x)) <= 1e-12

    def test_first_substep_matches_freeze_2d(self):
        # d=2, state- and control-dependent skew sigma, mixed open-loop play;
        # one substep per subinterval, so states[:, 1] is the first Euler step
        prob = skew_2d()
        pi = Partition.uniform(1.0, 2)
        prof = mc.StrategyProfile("openloop", [[0.2, 0.3, 0.5]] * 2, [[0.6, 0.4]] * 2)
        x0 = np.array([0.3, -0.4])
        ens = mc.simulate(prob, pi, prof, x0, 300, 1, mc.RandomizationDevice(8))
        assert len(set(zip(ens.u_indices[:, 0], ens.v_indices[:, 0]))) == 6
        delta = (pi.times[1] - pi.times[0]) / 1
        dw = mc.RandomizationDevice(8).brownian_normals(0, 0, 300, 1, 2)[:, 0] * math.sqrt(delta)
        for i in range(300):
            b, sig, _ = prob.coefficients(0.0, x0, ens.u_indices[i, 0], ens.v_indices[i, 0])
            b, sig = np.array(b, dtype=float), np.array(sig, dtype=float)
            sig_dw = sig[:, 0] * dw[i, 0] + sig[:, 1] * dw[i, 1]
            assert np.array_equal(ens.states[i, 1], x0 + b * delta + sig_dw)

    def test_feedback_draws_follow_partition_time_states(self):
        # each player's point mass depends on the cell of the state kept at
        # t_j, differently for u and v; a direct Euler loop with those draws
        # reproduces every kept state
        prob = load_problem("uv_drift")
        axis = np.array([-0.5, 0.0, 0.5])
        uw = np.zeros((4, 3, 2))
        vw = np.zeros((4, 3, 2))
        for c in range(3):
            uw[:, c, c % 2] = 1.0
            vw[:, c, int(c == 0)] = 1.0
        prof = mc.StrategyProfile("feedback", uw, vw, cell_axis=axis)
        pi = Partition.uniform(1.0, 4)
        ens = mc.simulate(prob, pi, prof, [0.1], 300, 2, mc.RandomizationDevice(6))
        assert ens.states.shape == (300, 5, 1)
        x = np.full(300, 0.1)
        delta = 1.0 / 8.0
        for j in range(4):
            assert np.array_equal(ens.states[:, j, 0], x)
            cells = np.abs(axis[None, :] - x[:, None]).argmin(axis=1)
            assert np.array_equal(ens.u_indices[:, j], cells % 2)
            assert np.array_equal(ens.v_indices[:, j], (cells == 0).astype(int))
            uv = prob.u_grid.points[cells % 2, 0] * prob.v_grid.points[(cells == 0) * 1, 0]
            z = mc.RandomizationDevice(6).brownian_normals(j, 0, 300, 2, 1)
            for s in range(2):
                x = x + uv * delta + z[:, s, 0] * math.sqrt(delta)
        assert np.array_equal(ens.states[:, 4, 0], x)
        assert len(set(ens.u_indices[:, 2])) == 2 and len(set(ens.v_indices[:, 2])) == 2

    @pytest.mark.parametrize("n_u, dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_control_indices_in_smallest_dtype(self, n_u, dtype):
        # stored as the smallest unsigned dtype holding the grid indices: one
        # byte per draw up to 256 controls, two beyond
        grid = {"points": np.linspace(-1, 1, n_u)[:, None].tolist()}
        prob = variant("uv_running_cost", U=grid, V=grid)
        ens = mc.simulate(prob, PI8, mc.StrategyProfile.uniform(prob, 8), [0.0], 500, 1,
                          mc.RandomizationDevice(5))
        for idx in (ens.u_indices, ens.v_indices):
            assert idx.dtype == dtype
            assert idx.nbytes == 500 * 8 * np.dtype(dtype).itemsize
            assert int(idx.max()) == n_u - 1

    def test_profile_partition_mismatch(self, uv_cost):
        with pytest.raises(ValueError, match="subintervals"):
            mc.simulate(uv_cost, PI8, mc.StrategyProfile.uniform(uv_cost, 4),
                        [0.0], 10, 1, mc.RandomizationDevice(0))

    @pytest.mark.parametrize("x0", [[np.nan], [np.inf], [-np.inf], [0.3, np.nan]])
    @pytest.mark.parametrize("run", [mc.simulate, mc.estimate], ids=["simulate", "estimate"])
    def test_rejects_non_finite_x0_before_drawing(self, x0, run):
        prob = skew_2d() if len(x0) == 2 else load_problem("uv_drift")
        with pytest.raises(ValueError, match=r"^x0 must be finite, got \["):
            run(prob, PI8, mc.StrategyProfile.uniform(prob, 8), x0, 10, 1, NoDrawDevice(0))

    @pytest.mark.parametrize("run", sorted(ROUTES))
    def test_rejects_partition_off_the_horizon_before_drawing(self, run):
        # uv_drift ends at T = 1: a partition of [0, 2] belongs to another game
        prob = load_problem("uv_drift")
        with pytest.raises(ValueError, match=r"partition horizon 2\.0 does not match problem T=1"):
            ROUTES[run](prob, Partition.uniform(2.0, 4), mc.StrategyProfile.uniform(prob, 4))

    @pytest.mark.parametrize("case", sorted(PROFILES_OFF_THE_GAME))
    @pytest.mark.parametrize("run", sorted(ROUTES))
    def test_rejects_profile_off_the_game_before_drawing(self, case, run):
        problem, profile, message = PROFILES_OFF_THE_GAME[case]
        prob = load_problem(problem)
        with pytest.raises(ValueError, match=message):
            ROUTES[run](prob, Partition.uniform(prob.T, 2),
                        mc.StrategyProfile.from_jsonable(profile))


class NoDrawDevice(mc.RandomizationDevice):
    """A device whose streams may not be drawn from."""

    def _raw_blocks(self, *args):
        raise AssertionError("drew from the streams")



def ensemble_bytes(ens):
    """Every PathEnsemble field, arrays by their raw bytes."""
    out = {}
    for name in ("states", "u_indices", "v_indices", "running_cost", "x0"):
        a = getattr(ens, name)
        out[name] = (a.dtype.str, a.shape, a.tobytes())
    out["partition"] = tuple(ens.partition.times)
    out["rest"] = (ens.euler_substeps, ens.seed, ens.n_paths)
    return out


class SpikedDevice(mc.RandomizationDevice):
    """Brownian normals with +inf planted at (subinterval, substep, global path)."""

    def __init__(self, seed, spikes):
        super().__init__(seed)
        self.spikes = spikes

    def brownian_normals(self, subinterval, path_start, n_paths, substeps, d):
        z = super().brownian_normals(subinterval, path_start, n_paths, substeps, d)
        for j, s, path in self.spikes:
            if j == subinterval and path_start <= path < path_start + n_paths:
                z[path - path_start, s, 0] = np.inf
        return z


class FailingDevice(SpikedDevice):
    """A SpikedDevice whose chunks starting at a path in ``fails`` raise DomainError.

    The Brownian draw of subinterval 1 raises, naming the chunk's first path;
    a chunk starting in ``slow`` first sleeps, so later chunks finish first.
    """

    def __init__(self, seed, spikes=(), fails=(), slow=()):
        super().__init__(seed, spikes)
        self.fails, self.slow = set(fails), set(slow)

    def brownian_normals(self, subinterval, path_start, n_paths, substeps, d):
        if subinterval == 1 and path_start in self.slow:
            time.sleep(0.05)
        if subinterval == 1 and path_start in self.fails:
            raise dsl.DomainError(f"planted at path {path_start}")
        return super().brownian_normals(subinterval, path_start, n_paths, substeps, d)


class TestChunking:
    """Paths run in chunks at their own Philox offsets; nothing may show it."""

    SIZES = (1, 7, mc._CHUNK_PATHS)
    WORKERS = (1, 2, 3)

    def feedback_1d(self):
        prob = load_problem("uv_drift")
        pi = Partition.uniform(prob.T, 4)
        grid = SpaceGrid.for_problem(prob, 31)
        res = dpp_sweep(prob, grid, pi, SchemeParams(), "lower", record_strategies=True)
        return prob, pi, mc.StrategyProfile.from_sweep(res, grid), [0.3], 3

    def openloop_2d(self):
        prob = skew_2d()
        pi = Partition.uniform(1.0, 3)
        prof = mc.StrategyProfile("openloop", [[0.2, 0.3, 0.5], [0.1, 0.1, 0.8], [0.5, 0.0, 0.5]],
                                  [[0.6, 0.4], [0.5, 0.5], [0.9, 0.1]])
        return prob, pi, prof, [0.3, -0.4], 2

    @pytest.mark.parametrize("case", ["feedback_1d", "openloop_2d"])
    def test_results_independent_of_chunk_size(self, monkeypatch, case):
        prob, pi, prof, x0, substeps = getattr(self, case)()
        runs = []
        for size in self.SIZES:
            monkeypatch.setattr(mc, "_CHUNK_PATHS", size)
            ens = mc.simulate(prob, pi, prof, x0, 100, substeps, mc.RandomizationDevice(17))
            est = mc.estimate_payoff(ens, prob)
            runs.append((ensemble_bytes(ens), est.mean.hex(), est.std_error.hex(), est.n_paths))
        assert runs[0][0]["states"][1] == (100, pi.n + 1, prob.d)
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_error_names_global_path(self, heat, monkeypatch):
        # path 9 is the first to go non-finite, at (1, 2); path 3, in the
        # first chunk of 7, only at (2, 0), and path 20 at (1, 2) too
        spikes = [(2, 0, 3), (1, 2, 20), (1, 2, 9)]
        messages = []
        for size in self.SIZES:
            monkeypatch.setattr(mc, "_CHUNK_PATHS", size)
            with pytest.raises(ArithmeticError) as err:
                mc.simulate(heat, Partition.uniform(1.0, 4), mc.StrategyProfile.uniform(heat, 4),
                            [0.0], 30, 3, SpikedDevice(4, spikes))
            messages.append(str(err.value))
        assert messages == ["non-finite state at path 9, subinterval 1, substep 2"] * 3

    @pytest.mark.parametrize("case", ["feedback_1d", "openloop_2d"])
    def test_results_independent_of_workers(self, monkeypatch, case):
        prob, pi, prof, x0, substeps = getattr(self, case)()
        runs = []
        for workers, size in itertools.product(self.WORKERS, self.SIZES):
            monkeypatch.setattr(mc, "_WORKERS", workers)
            monkeypatch.setattr(mc, "_CHUNK_PATHS", size)
            ens = mc.simulate(prob, pi, prof, x0, 100, substeps, mc.RandomizationDevice(17))
            est = mc.estimate(prob, pi, prof, x0, 100, substeps, mc.RandomizationDevice(17))
            runs.append((ensemble_bytes(ens), est.mean.hex(), est.std_error.hex(), est.n_paths))
        assert runs[0][0]["states"][1] == (100, pi.n + 1, prob.d)
        assert all(run == runs[0] for run in runs[1:])

    def test_more_workers_than_cores_switching_often(self, monkeypatch):
        # the workers share the output arrays: a lost or misplaced row shows
        prob, pi, prof, x0, substeps = self.openloop_2d()
        many = mc._WORKERS + 3  # more workers than usable cores
        monkeypatch.setattr(mc, "_CHUNK_PATHS", 16)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, many):
                monkeypatch.setattr(mc, "_WORKERS", workers)
                ens = mc.simulate(prob, pi, prof, x0, 300, substeps, mc.RandomizationDevice(5))
                est = mc.estimate(prob, pi, prof, x0, 300, substeps, mc.RandomizationDevice(5))
                runs.append((ensemble_bytes(ens), est.mean.hex(), est.std_error.hex()))
        finally:
            sys.setswitchinterval(interval)
        assert runs[1] == runs[0]

    def test_error_names_global_path_at_every_worker_count(self, heat, monkeypatch):
        # the spikes of test_error_names_global_path
        spikes = [(2, 0, 3), (1, 2, 20), (1, 2, 9)]
        pi, prof = Partition.uniform(1.0, 4), mc.StrategyProfile.uniform(heat, 4)
        for workers, size in itertools.product(self.WORKERS, self.SIZES):
            monkeypatch.setattr(mc, "_WORKERS", workers)
            monkeypatch.setattr(mc, "_CHUNK_PATHS", size)
            for run in (mc.simulate, mc.estimate):
                with pytest.raises(ArithmeticError) as err:
                    run(heat, pi, prof, [0.0], 30, 3, SpikedDevice(4, spikes))
                assert str(err.value) == "non-finite state at path 9, subinterval 1, substep 2"

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("run", [mc.simulate, mc.estimate], ids=["simulate", "estimate"])
    def test_lowest_failing_chunk_raises(self, heat, monkeypatch, workers, run):
        monkeypatch.setattr(mc, "_WORKERS", workers)
        monkeypatch.setattr(mc, "_CHUNK_PATHS", 7)
        size = -(-7 // workers)
        # chunk 0 goes non-finite first; chunk 2, slow, and chunk 3 raise, and
        # a loop over the chunks would raise chunk 2's error
        device = FailingDevice(4, spikes=[(0, 0, 1)], fails=[2 * size, 3 * size],
                               slow=[2 * size])
        with pytest.raises(dsl.DomainError, match=f"^planted at path {2 * size}$"):
            run(heat, Partition.uniform(1.0, 4), mc.StrategyProfile.uniform(heat, 4), [0.0],
                30, 3, device)

    @pytest.mark.parametrize("run", [mc.simulate, mc.estimate], ids=["simulate", "estimate"])
    def test_every_thread_joined(self, heat, monkeypatch, run):
        monkeypatch.setattr(mc, "_WORKERS", 3)
        monkeypatch.setattr(mc, "_CHUNK_PATHS", 7)
        args = (heat, Partition.uniform(1.0, 4), mc.StrategyProfile.uniform(heat, 4), [0.0], 30, 3)
        before = threading.active_count()
        # chunks of 3 paths: the one at path 3 runs on a worker thread and is slow
        run(*args, FailingDevice(4, slow=[3]))
        assert threading.active_count() == before
        # the chunk at path 0 fails at once on the calling thread
        with pytest.raises(dsl.DomainError, match="^planted at path 0$"):
            run(*args, FailingDevice(4, fails=[0], slow=[3]))
        assert threading.active_count() == before

    def test_memory_bounded_by_kept_ensemble(self, monkeypatch):
        prob = load_problem("uv_drift")
        pi = Partition.uniform(prob.T, 8)
        grid = SpaceGrid.for_problem(prob, 41)
        res = dpp_sweep(prob, grid, pi, SchemeParams(), "lower", record_strategies=True)
        prof = mc.StrategyProfile.from_sweep(res, grid)
        # the workers share the paths in flight, so the bound holds at any count
        for workers in (1, 2, 4):
            monkeypatch.setattr(mc, "_WORKERS", workers)
            tracemalloc.start()
            try:
                ens = mc.simulate(prob, pi, prof, [0.0], 200_000, 4, mc.RandomizationDevice(1))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert ens.states.shape == (200_000, pi.n + 1, 1)
            kept = sum(a.nbytes for a in (ens.states, ens.u_indices, ens.v_indices,
                                          ens.running_cost))
            # keeping every substep's state would need about 1.6x
            assert peak <= 1.25 * kept, workers
            del ens


def moving_1d(phi=None, **bounds):
    """d=1: b names t, sigma names neither t nor x, f names x.

    ``phi`` replaces the terminal cost; ``bounds`` add to or replace the bounds.
    """
    over = {} if phi is None else {"phi": phi}
    return variant("uv_running_cost", name="moving_1d", b=["u1*v1*cos(t)"],
                   f="u1*v1 + 0.1*sin(x1)", bounds={"sup_b": 1.0, "sup_f": 1.1, **bounds},
                   **over)


def moving_2d():
    """d=2: entries naming t, x, both or neither, in b, in both rows of sigma and in f."""
    return load_problem({
        "name": "moving_2d", "d": 2, "T": 1.0,
        "b": ["u1*v1 - 0.1*x1 + 0.05*sin(t)", "0.5*(u1-v1)"],
        "sigma": [["1 + 0.1*u1*cos(x2)", "0.2*cos(t)"], ["0.1*v1", "0.8"]],
        "f": "u1*v1*cos(t) + 0.05*x2", "phi": "cos(x1)*cos(x2)",
        "U": {"points": [[-1.0], [0.0], [1.0]]}, "V": {"points": [[-1.0], [1.0]]},
        "domain": {"min": [-2.0, -2.0], "max": [2.0, 2.0]},
        "condition41_mode": "f_linear_in_z",
        "bounds": {"sup_b": 1.3, "sup_sigma": 1.1, "lip_y_f": 0.0, "sup_f": 1.1,
                   "sup_phi": 1.0, "value_lip": 1.5},
    })


def per_substep_euler(prob, pi, profile, x0, n_paths, substeps, seed):
    """Open-loop simulation evaluating every coefficient at every substep."""
    dev = mc.RandomizationDevice(seed)
    x = np.tile(np.asarray(x0, dtype=float), (n_paths, 1))
    states, cost = [x], np.zeros(n_paths)
    for j in range(pi.n):
        delta = (pi.times[j + 1] - pi.times[j]) / substeps
        draws = []
        for player, w in ((1, profile.u_weights[j]), (2, profile.v_weights[j])):
            cum = np.cumsum(w)
            cum[-1] = 1.0
            draws.append((dev.control_uniforms(j, player, 0, n_paths)[:, None] > cum).sum(axis=1))
        du, dv = draws
        z = dev.brownian_normals(j, 0, n_paths, substeps, prob.d)
        for s in range(substeps):
            t = pi.times[j] + s * delta
            b, sig, f = prob.coefficients(t, x, du, dv)
            b = np.stack([np.broadcast_to(e, (n_paths,)) for e in b], axis=-1)
            sig = np.stack([np.stack([np.broadcast_to(e, (n_paths,)) for e in row], axis=-1)
                            for row in sig], axis=1)
            cost += delta * f
            x = x + b * delta + np.einsum("nij,nj->ni", sig, z[:, s, :] * math.sqrt(delta))
        states.append(x)
    return np.stack(states, axis=1), cost


class CountedEvaluate:
    """dsl.evaluate wrapped to count calls per expression, from any thread."""

    def __init__(self, monkeypatch):
        self.counts = Counter()
        lock = threading.Lock()
        inner = dsl.evaluate

        def evaluate(expr, bindings):
            with lock:
                self.counts[expr] += 1
            return inner(expr, bindings)

        monkeypatch.setattr(dsl, "evaluate", evaluate)

    def __getitem__(self, expr):
        return self.counts[expr]

    @property
    def total(self):
        return sum(self.counts.values())


class TestCoefficientReuse:
    """Only entries naming t or x are evaluated again within a subinterval."""

    @pytest.mark.parametrize("case", ["moving_1d", "moving_2d"])
    def test_states_equal_per_substep_euler(self, monkeypatch, case):
        prob = globals()[case]()
        pi = Partition.uniform(1.0, 3)
        m, k = prob.u_grid.n, prob.v_grid.n
        rng = np.random.default_rng(2)
        prof = mc.StrategyProfile("openloop", rng.dirichlet(np.ones(m), size=3),
                                  rng.dirichlet(np.ones(k), size=3))
        x0 = [0.3, -0.4][:prob.d]
        monkeypatch.setattr(mc, "_CHUNK_PATHS", 64)
        ens = mc.simulate(prob, pi, prof, x0, 150, 4, mc.RandomizationDevice(12))
        states, cost = per_substep_euler(prob, pi, prof, x0, 150, 4, 12)
        assert len(set(zip(ens.u_indices[:, 0], ens.v_indices[:, 0]))) == m * k
        assert ens.states.tobytes() == states.tobytes()
        assert ens.running_cost.tobytes() == cost.tobytes()

    def counted_simulate(self, monkeypatch, prob, workers):
        """dsl.evaluate calls of simulating 100 paths with 40 in flight."""
        monkeypatch.setattr(mc, "_CHUNK_PATHS", 40)
        monkeypatch.setattr(mc, "_WORKERS", workers)
        counted = CountedEvaluate(monkeypatch)
        mc.simulate(prob, Partition.uniform(1.0, 4), mc.StrategyProfile.uniform(prob, 4),
                    [0.0], 100, 3, mc.RandomizationDevice(0))
        return counted

    def check_constant_entries(self, monkeypatch, workers, chunks):
        prob = load_problem("uv_drift")
        counted = self.counted_simulate(monkeypatch, prob, workers)
        per_entry = chunks * 4  # chunks x subintervals
        assert counted[prob.b[0]] == counted[prob.sigma[0][0]] == counted[prob.f] == per_entry
        assert counted.total == 3 * per_entry

    def check_moving_entries(self, monkeypatch, workers, chunks):
        prob = moving_1d()
        counted = self.counted_simulate(monkeypatch, prob, workers)
        assert counted[prob.b[0]] == counted[prob.f] == chunks * 4 * 3  # names t, x
        assert counted[prob.sigma[0][0]] == chunks * 4  # names neither
        assert counted.total == chunks * 4 * 7

    def test_constant_entries_once_per_chunk_and_subinterval(self, monkeypatch):
        self.check_constant_entries(monkeypatch, 1, 3)  # chunks of 40

    def test_constant_entries_once_per_chunk_and_subinterval_two_workers(self, monkeypatch):
        self.check_constant_entries(monkeypatch, 2, 5)  # chunks of 20

    def test_moving_entries_every_substep(self, monkeypatch):
        self.check_moving_entries(monkeypatch, 1, 3)

    def test_moving_entries_every_substep_two_workers(self, monkeypatch):
        self.check_moving_entries(monkeypatch, 2, 5)


def old_draw_indices(uniforms, cum):
    """The inverse-CDF draw against the whole (n, m) table of cumulative weights."""
    return (uniforms[:, None] > cum).sum(axis=1)


def check_draws(u, cum, new):
    """``new`` equals the old draw off the edges and counts weights <= u on them."""
    if cum.ndim == 1:
        cum = np.broadcast_to(cum, (u.size, cum.size))
    old = old_draw_indices(u, cum)
    edge = (u[:, None] == cum).any(axis=1)
    assert new.dtype == old.dtype and np.array_equal(new[~edge], old[~edge])
    # control k owns [cum_{k-1}, cum_k): a uniform on an edge goes right
    assert np.array_equal(new[edge], (u[edge, None] >= cum[edge]).sum(axis=1))
    # so no control of weight 0 is drawn, not even by a uniform of exactly 0
    weights = np.diff(cum, axis=1, prepend=0.0)
    assert np.all(weights[np.arange(u.size), new] > 0.0)


class TestDrawIndices:
    def uniforms(self, cum, n=400):
        # random uniforms, every cumulative weight below 1 and its neighbours
        edges = np.unique(cum[cum < 1.0])
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                               [0.0, np.nextafter(1.0, 0.0)]])
        u = np.concatenate([near, np.random.default_rng(3).random(n)])
        return u[(u >= 0.0) & (u < 1.0)]

    @pytest.mark.parametrize("weights", [[1.0], [0.5, 0.5], [0.25, 0.25, 0.5],
                                         [0.5, 0.0, 0.5], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                                         [0.0, 1.0, 0.0], [0.1, 0.2, 0.3, 0.0, 0.4]])
    def test_openloop_equals_whole_table(self, weights):
        cum = mc._cumulative(np.array(weights))
        u = self.uniforms(cum)
        check_draws(u, cum, mc._draw_indices(u, cum))

    @pytest.mark.parametrize("m", [1, 3])
    def test_feedback_cells_equal_gathered_table(self, m):
        rng = np.random.default_rng(m)
        w = rng.dirichlet(np.ones(m), size=6)
        w[1] = np.eye(m)[-1]  # zero weights before the last control
        w[2] = np.eye(m)[0]  # zero weights after the first
        cum = mc._cumulative(w)
        u = self.uniforms(cum)
        cells = rng.integers(0, 6, size=u.size)
        check_draws(u, cum[cells], mc._draw_indices(u, cum, cells))


class TestEstimatePayoff:
    def test_zero_problem(self):
        zero = variant("uv_running_cost", name="allzero", f="0",
                       bounds={"sup_f": 0.0})
        ens = mc.simulate(zero, PI8, mc.StrategyProfile.uniform(zero, 8),
                          [0.0], 200, 2, mc.RandomizationDevice(5))
        est = mc.estimate_payoff(ens, zero)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_heat_value(self, heat):
        ens = mc.simulate(heat, PI8, mc.StrategyProfile.uniform(heat, 8),
                          [0.0], 100_000, 4, mc.RandomizationDevice(7))
        est = mc.estimate_payoff(ens, heat)
        assert abs(est.mean - math.exp(-0.5)) <= 3 * est.std_error

    def test_two_seeds_agree(self, uv_cost):
        prof = mc.StrategyProfile.uniform(uv_cost, 8)
        e1 = mc.estimate_payoff(
            mc.simulate(uv_cost, PI8, prof, [0.0], 50_000, 2, mc.RandomizationDevice(1)),
            uv_cost)
        e2 = mc.estimate_payoff(
            mc.simulate(uv_cost, PI8, prof, [0.0], 50_000, 2, mc.RandomizationDevice(2)),
            uv_cost)
        assert abs(e1.mean - e2.mean) <= 3 * math.hypot(e1.std_error, e2.std_error)

    def test_rejects_y_dependent_f(self):
        ydep = variant("uv_running_cost", name="ydep", f="u1*v1 - y",
                       bounds={"lip_y_f": 1.0})
        ens = mc.simulate(ydep, PI8, mc.StrategyProfile.uniform(ydep, 8),
                          [0.0], 50, 1, mc.RandomizationDevice(0))
        with pytest.raises(mc.ClassicalCaseError, match="PDE"):
            mc.estimate_payoff(ens, ydep)

    def test_rejects_z_dependent_f(self):
        zdep = variant("uv_running_cost", name="zdep", f="u1*v1 + 0.5*z1",
                       condition41_mode="f_linear_in_z")
        ens = mc.simulate(zdep, PI8, mc.StrategyProfile.uniform(zdep, 8),
                          [0.0], 50, 1, mc.RandomizationDevice(0))
        with pytest.raises(mc.ClassicalCaseError, match="PDE"):
            mc.estimate_payoff(ens, zdep)

    def test_euler_refinement_stable(self, heat):
        # halving the substep moves the estimate by at most max(3 SE, C dt)
        prof = mc.StrategyProfile.uniform(heat, 8)
        e1 = mc.estimate_payoff(
            mc.simulate(heat, PI8, prof, [0.0], 50_000, 2, mc.RandomizationDevice(9)),
            heat)
        e2 = mc.estimate_payoff(
            mc.simulate(heat, PI8, prof, [0.0], 50_000, 4, mc.RandomizationDevice(9)),
            heat)
        dt = 1.0 / (8 * 2)
        assert abs(e1.mean - e2.mean) <= max(3 * math.hypot(e1.std_error, e2.std_error),
                                             1.0 * dt)


def feedback_moving_phi_1d():
    """moving_1d with a sin/exp terminal cost, feedback play."""
    prob = moving_1d(phi="sin(x1) + exp(-x1*x1)", sup_phi=2.0, value_lip=3.0)
    pi = Partition.uniform(prob.T, 3)
    grid = SpaceGrid.for_problem(prob, 31)
    res = dpp_sweep(prob, grid, pi, SchemeParams(), "lower", record_strategies=True)
    return prob, pi, mc.StrategyProfile.from_sweep(res, grid), [0.2], 2


def openloop_moving_2d():
    prob = moving_2d()
    rng = np.random.default_rng(4)
    prof = mc.StrategyProfile("openloop", rng.dirichlet(np.ones(prob.u_grid.n), size=3),
                              rng.dirichlet(np.ones(prob.v_grid.n), size=3))
    return prob, Partition.uniform(1.0, 3), prof, [0.3, -0.4], 2


ESTIMATE_CASES = {
    "feedback_1d": lambda: TestChunking().feedback_1d(),
    "openloop_2d": lambda: TestChunking().openloop_2d(),
    "feedback_moving_phi_1d": feedback_moving_phi_1d,
    "openloop_moving_2d": openloop_moving_2d,
}


class TestEstimate:
    """``estimate`` is ``estimate_payoff(simulate(...))`` with one payoff kept per path."""

    @pytest.mark.parametrize("chunk", [1, 7, mc._CHUNK_PATHS])
    @pytest.mark.parametrize("case", sorted(ESTIMATE_CASES))
    def test_bitwise_equal_to_estimate_payoff(self, monkeypatch, case, chunk):
        prob, pi, prof, x0, substeps = ESTIMATE_CASES[case]()
        monkeypatch.setattr(mc, "_CHUNK_PATHS", chunk)
        sizes = sorted({n for n in (1, 7, chunk - 1, chunk, chunk + 1, 2 * chunk + 5) if n >= 1})
        for n in sizes:
            dev = mc.RandomizationDevice(23)
            got = mc.estimate(prob, pi, prof, x0, n, substeps, dev)
            want = mc.estimate_payoff(mc.simulate(prob, pi, prof, x0, n, substeps, dev), prob)
            assert (got.mean.hex(), got.std_error.hex(), got.n_paths) == \
                (want.mean.hex(), want.std_error.hex(), want.n_paths), n

    @pytest.mark.parametrize("x0", [0.0, 0.7])
    @pytest.mark.parametrize("times", [np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 17),
                                       np.array([0.0, 0.1, 0.35, 0.5, 0.9, 1.0])],
                             ids=["n4", "n16", "nonuniform"])
    def test_uv_square_uniform_profile_closed_form(self, times, x0):
        # held u v = +-1 with equal weights: X_T = x0 + sum_j (u v)_j delta_j + B_T,
        # so E[X_T^2] = x0^2 + T + sum_j delta_j^2, and Euler is exact here
        prob, pi = load_problem("uv_square"), Partition(times)
        est = mc.estimate(prob, pi, mc.StrategyProfile.uniform(prob, pi.n), [x0], 50_000, 4,
                          mc.RandomizationDevice(11))
        exact = x0 * x0 + prob.T + float(np.sum(np.diff(times) ** 2))
        assert abs(est.mean - exact) <= 4 * est.std_error

    def test_first_path_continues_the_streams(self, monkeypatch):
        prob, pi, prof, x0, substeps = TestChunking().feedback_1d()
        monkeypatch.setattr(mc, "_CHUNK_PATHS", 7)
        dev = mc.RandomizationDevice(17)
        whole = mc.simulate(prob, pi, prof, x0, 40, substeps, dev)
        parts = [mc.simulate(prob, pi, prof, x0, hi - lo, substeps, dev, first_path=lo)
                 for lo, hi in ((0, 13), (13, 14), (np.int64(14), 40))]
        assert whole.first_path == 0
        assert [p.first_path for p in parts] == [0, 13, 14]
        for name in ("states", "u_indices", "v_indices", "running_cost"):
            joined = np.concatenate([getattr(p, name) for p in parts])
            assert joined.tobytes() == getattr(whole, name).tobytes(), name

    @pytest.mark.parametrize("first_path", [-1, 1.5, True, "2", None])
    def test_rejects_bad_first_path(self, uv_cost, first_path):
        with pytest.raises(ValueError, match=r"first_path must be an int >= 0, got "
                           + re.escape(repr(first_path))):
            mc.simulate(uv_cost, PI8, mc.StrategyProfile.uniform(uv_cost, 8), [0.0], 5, 1,
                        mc.RandomizationDevice(0), first_path=first_path)

    def test_error_names_global_path(self, heat, monkeypatch):
        # the spikes of TestChunking: path 9 is the first to go non-finite
        spikes = [(2, 0, 3), (1, 2, 20), (1, 2, 9)]
        pi, prof = Partition.uniform(1.0, 4), mc.StrategyProfile.uniform(heat, 4)
        for size in TestChunking.SIZES:
            monkeypatch.setattr(mc, "_CHUNK_PATHS", size)
            with pytest.raises(ArithmeticError) as err:
                mc.estimate(heat, pi, prof, [0.0], 30, 3, SpikedDevice(4, spikes))
            assert str(err.value) == "non-finite state at path 9, subinterval 1, substep 2"
        # a slice of the streams names paths by their global index
        for first, n, where in ((5, 25, "path 9, subinterval 1, substep 2"),
                                (10, 20, "path 20, subinterval 1, substep 2"),
                                (0, 6, "path 3, subinterval 2, substep 0")):
            with pytest.raises(ArithmeticError) as err:
                mc.simulate(heat, pi, prof, [0.0], n, 3, SpikedDevice(4, spikes),
                            first_path=first)
            assert str(err.value) == f"non-finite state at {where}"

    def test_memory_grows_by_one_payoff_per_path(self):
        prob = load_problem("uv_drift")
        pi = Partition.uniform(prob.T, 8)
        grid = SpaceGrid.for_problem(prob, 41)
        res = dpp_sweep(prob, grid, pi, SchemeParams(), "lower", record_strategies=True)
        prof = mc.StrategyProfile.from_sweep(res, grid)
        peaks = []
        for n in (200_000, 400_000):
            tracemalloc.start()
            try:
                est = mc.estimate(prob, pi, prof, [0.0], n, 1, mc.RandomizationDevice(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert est.n_paths == n
        # the peak is reached while a chunk runs: the payoff vector (8 bytes
        # per path) plus one chunk's working set, the same at both counts.
        # _statistics adds no path-sized array after the last chunk, so the
        # peak grows by the payoff vector alone; the ensemble would add 208.
        assert peaks[1] - peaks[0] <= 1.25 * 8 * 200_000

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 127, 128, 129, 1000, 100_003])
    def test_statistics_bitwise_np_std(self, n):
        rng = np.random.default_rng(n)
        for payoff in (rng.normal(3.0, 2.0, n), 1e8 + rng.standard_cauchy(n),
                       np.full(n, 0.1), np.linspace(-1.0, 1.0, n) ** 3):
            want_se = np.std(payoff, ddof=1) / math.sqrt(n) if n > 1 else 0.0
            got = mc._statistics(payoff.copy())
            assert (got.mean.hex(), got.std_error.hex(), got.n_paths) == \
                (float(np.mean(payoff)).hex(), float(want_se).hex(), n)

    def test_statistics_adds_no_path_sized_array(self):
        payoff = np.random.default_rng(0).normal(size=1_000_000)
        tracemalloc.start()
        try:
            mc._statistics(payoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # np.std alone would allocate the 8 MB of payoff - mean
        assert peak < 0.01 * payoff.nbytes

    def test_rejects_y_dependent_f_before_simulating(self, monkeypatch):
        ydep = variant("uv_running_cost", name="ydep", f="u1*v1 - y", bounds={"lip_y_f": 1.0})
        monkeypatch.setattr(mc, "simulate", None)
        with pytest.raises(mc.ClassicalCaseError, match="PDE"):
            mc.estimate(ydep, PI8, mc.StrategyProfile.uniform(ydep, 8), [0.0], 50, 1,
                        mc.RandomizationDevice(0))


class TestExploit:
    def test_uniform_opponent_not_exploitable(self, uv_cost):
        prof = mc.StrategyProfile.uniform(uv_cost, 8)
        res = mc.exploit(uv_cost, PI8, "player2", prof, [0.0], 20_000,
                         mc.RandomizationDevice(3))
        assert res.gain >= -3 * res.baseline.std_error
        assert abs(res.gain) <= 0.05

    def test_point_mass_opponent_fully_exploitable(self, uv_cost):
        # v fixed at +1, u baseline uniform: best response u=+1 earns T
        uw = np.full((8, 2), 0.5)
        vw = np.zeros((8, 2))
        vw[:, 1] = 1.0
        prof = mc.StrategyProfile("openloop", uw, vw)
        res = mc.exploit(uv_cost, PI8, "player2", prof, [0.0], 20_000,
                         mc.RandomizationDevice(3))
        assert res.gain == pytest.approx(1.0, abs=0.05)

    def test_control_free_zero_exploitability(self, heat):
        prof = mc.StrategyProfile.uniform(heat, 8)
        res = mc.exploit(heat, PI8, "player1", prof, [0.0], 10_000,
                         mc.RandomizationDevice(5))
        assert abs(res.gain) <= max(0.02, 4 * res.baseline.std_error)

    @pytest.mark.parametrize("seed", range(6))
    def test_control_free_gain_exactly_zero(self, heat, seed):
        # best response and profile are one chain: with no control to
        # deviate in, both levels are the same scheme steps, bitwise
        prof = mc.StrategyProfile.uniform(heat, 8)
        res = mc.exploit(heat, PI8, "player1", prof, [0.0], 1_000,
                         mc.RandomizationDevice(seed))
        assert res.gain == 0.0

    @pytest.mark.parametrize("fixed_side", ["player1", "player2"])
    def test_gain_nonnegative_against_mixed_openloop(self, uv_cost, fixed_side):
        rng = np.random.default_rng(4)
        uw = rng.dirichlet([1.0, 1.0], size=8)
        vw = rng.dirichlet([1.0, 1.0], size=8)
        prof = mc.StrategyProfile("openloop", uw, vw)
        res = mc.exploit(uv_cost, PI8, fixed_side, prof, [0.3], 1_000,
                         mc.RandomizationDevice(21))
        assert res.gain >= -1e-12

    def test_fixed_player1_side(self, uv_cost):
        # u fixed at +1, v free: minimizer plays v=-1 and drives payoff to -T
        uw = np.zeros((8, 2))
        uw[:, 1] = 1.0
        vw = np.full((8, 2), 0.5)
        prof = mc.StrategyProfile("openloop", uw, vw)
        res = mc.exploit(uv_cost, PI8, "player1", prof, [0.0], 20_000,
                         mc.RandomizationDevice(13))
        assert res.gain == pytest.approx(1.0, abs=0.05)
        assert res.best_response_value == pytest.approx(-1.0, abs=0.05)

    @pytest.mark.parametrize("seed", range(3))
    def test_saddle_profile_value_exact(self, seed):
        # uv_drift under the 50/50 saddle keeps phi = x1 a martingale, and the
        # chain values a linear level exactly away from the clamped boundary
        prob = load_problem("uv_drift")
        grid = SpaceGrid.for_problem(prob, 101)
        sweep = dpp_sweep(prob, grid, PI8, SchemeParams(), "lower", record_strategies=True)
        prof = mc.StrategyProfile.from_sweep(sweep, grid)
        res = mc.exploit(prob, PI8, "player1", prof, [0.2], 2_000,
                         mc.RandomizationDevice(seed))
        assert res.profile_value == pytest.approx(0.2, abs=1e-9)
        assert res.best_response_value == pytest.approx(0.2, abs=1e-9)

    def test_gain_bitwise_across_seeds(self):
        prob = games3.drift_cost3()
        rng = np.random.default_rng(4)
        prof = mc.StrategyProfile("openloop", rng.dirichlet(np.ones(3), size=8),
                                  rng.dirichlet(np.ones(3), size=8))
        results = [mc.exploit(prob, PI8, "player2", prof, [0.3], 500,
                              mc.RandomizationDevice(seed)) for seed in (0, 1, 2)]
        assert results[0].gain > 0.0
        assert len({(r.gain, r.best_response_value, r.profile_value) for r in results}) == 1
        assert len({r.baseline.mean for r in results}) == 3

    @pytest.mark.parametrize("fixed_side", ["player1", "player2"])
    def test_saddle_gain_first_order_in_mesh(self, fixed_side):
        # against the sweep's own saddle the free player gains from the
        # strategies being frozen over a subinterval: O(|pi|), halving with it
        prob = games3.drift_cost3()
        grid = SpaceGrid.for_problem(prob, 201)
        gains = []
        for n in (4, 8, 16):
            pi = Partition.uniform(prob.T, n)
            sweep = dpp_sweep(prob, grid, pi, SchemeParams(), "lower", record_strategies=True)
            prof = mc.StrategyProfile.from_sweep(sweep, grid)
            gains.append(mc.exploit(prob, pi, fixed_side, prof, [0.0], 200,
                                    mc.RandomizationDevice(0), nx=201).gain)
        assert all(g > 0.0 for g in gains)
        ratios = [a / b for a, b in zip(gains, gains[1:])]
        assert all(1.7 <= r <= 2.4 for r in ratios), ratios

    @pytest.mark.parametrize("fixed_side", ["player1", "player2"])
    @pytest.mark.parametrize("profile", ["uniform", "point_mass"])
    def test_runs_in_two_dimensions(self, fixed_side, profile):
        prob = load_problem(BILINEAR_DRIFT_2D)
        pi = Partition.uniform(prob.T, 4)
        prof = (mc.StrategyProfile.uniform(prob, 4) if profile == "uniform"
                else point_mass(prob, 4, 0, 1))
        res = mc.exploit(prob, pi, fixed_side, prof, [0.3, -0.2], 200,
                         mc.RandomizationDevice(1))
        assert res.gain >= -1e-12
