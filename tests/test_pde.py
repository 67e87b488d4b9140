import copy
import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mixedvalue import dsl, pde
from mixedvalue.games import GameError, _solve_entries
from mixedvalue.montecarlo import RandomizationDevice, StrategyProfile, exploit
from mixedvalue.partition import Partition, dpp_sweep
from mixedvalue.pde import (
    CflViolationError,
    NonFiniteFieldError,
    SchemeParams,
    SpaceGrid,
    Stepper,
    ValueField,
    cfl_limit,
    discrete_lipschitz,
    gap_report,
    solve,
    terminal_field,
    window_mask,
)
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
def heat():
    return load_problem("heat_cosine")


@pytest.fixture(scope="module")
def uv_cost():
    return load_problem("uv_running_cost")


@pytest.fixture(scope="module")
def uv_drift():
    return load_problem("uv_drift")


class TestStepBack:
    def test_heat_step_matches_explicit_stencil(self, heat):
        grid = SpaceGrid.for_problem(heat, 41)
        h = grid.h[0]
        dt = 0.4 * h * h
        v = terminal_field(heat, grid).values
        out = Stepper(heat, grid).step(v, 1.0, dt, "relaxed")
        # b = 0 and a = sigma^2 = 1: the weights a/(2h^2), -a/h^2, a/(2h^2) on
        # the neighbours x - h, x, x + h, applied by one matrix product, then f = 0
        weights = np.array([[0.5 / h**2, -1.0 / h**2, 0.5 / h**2]])
        gen = weights @ np.stack([v[:-2], v[1:-1], v[2:]])
        gen += 0.0
        expected = v.copy()
        expected[1:-1] = v[1:-1] + dt * gen[0]
        expected[0] = expected[1]
        expected[-1] = expected[-2]
        assert np.array_equal(out, expected)

    def test_uv_running_cost_flat_field(self, uv_cost):
        grid = SpaceGrid.for_problem(uv_cost, 31)
        dt = 1e-3
        zero = np.zeros(31)
        stepper = Stepper(uv_cost, grid)
        relaxed = stepper.step(zero, 0.5, dt, "relaxed")
        assert np.max(np.abs(relaxed)) <= 1e-15
        low = stepper.step(zero, 0.5, dt, "pure_lower")
        assert np.allclose(low, -dt, atol=1e-18)
        up = stepper.step(zero, 0.5, dt, "pure_upper")
        assert np.allclose(up, dt, atol=1e-18)

    def test_zero_dt_is_identity(self, uv_cost):
        grid = SpaceGrid.for_problem(uv_cost, 31)
        rng = np.random.default_rng(0)
        vals = rng.uniform(-0.5, 0.5, 31)
        out = Stepper(uv_cost, grid).step(vals, 0.5, 0.0, "relaxed")
        # clamp copies the boundary even at dt=0; interior is untouched
        assert np.array_equal(out[1:-1], vals[1:-1])

    def test_cfl_violation(self, heat):
        grid = SpaceGrid.for_problem(heat, 201)
        with pytest.raises(CflViolationError, match="CFL"):
            solve(heat, grid, SchemeParams(dt=1.0))


class TestSolve:
    @pytest.mark.parametrize("mode", ["relaxed", "pure_lower", "pure_upper"])
    def test_one_step_per_level(self, monkeypatch, uv_cost, mode):
        # a level is one Stepper.step call, taken at the time of the level it
        # steps from: the benchmark counts node-levels through these calls
        times = []
        inner = pde.Stepper.step

        def counted(stepper, values, t, dt, step_mode):
            times.append(t)
            return inner(stepper, values, t, dt, step_mode)

        monkeypatch.setattr(pde.Stepper, "step", counted)
        levels = solve(uv_cost, SpaceGrid.for_problem(uv_cost, 21),
                       SchemeParams(hamiltonian_mode=mode))
        assert len(levels) > 2
        assert times == [lv.t for lv in levels[:-1]]

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan])
    def test_rejects_nonpositive_dt(self, heat, dt):
        grid = SpaceGrid.for_problem(heat, 41)
        with pytest.raises(CflViolationError, match="dt must be positive"):
            solve(heat, grid, SchemeParams(dt=dt))

    def test_heat_analytic_value(self, heat):
        grid = SpaceGrid.for_problem(heat, 401)
        levels = solve(heat, grid, SchemeParams())
        assert levels[0].t == 1.0 and levels[-1].t == 0.0
        x = grid.axes[0]
        exact = math.exp(-0.5) * np.cos(x)
        err = np.max(np.abs(levels[-1].values - exact)[window_mask(heat, grid)])
        assert err <= 5e-3
        assert abs(levels[-1].values[200] - math.exp(-0.5)) <= 1e-3

    def test_heat_second_order_in_space(self, heat):
        errs = []
        for nx in (401, 801):
            grid = SpaceGrid.for_problem(heat, nx)
            levels = solve(heat, grid, SchemeParams())
            exact = math.exp(-0.5) * np.cos(grid.axes[0])
            errs.append(np.max(np.abs(levels[-1].values - exact)[window_mask(heat, grid)]))
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.0

    def test_uv_running_cost_closed_forms(self, uv_cost):
        grid = SpaceGrid.for_problem(uv_cost, 201)
        mask = window_mask(uv_cost, grid)
        targets = {"relaxed": 0.0, "pure_lower": -1.0, "pure_upper": 1.0}
        for mode, target in targets.items():
            levels = solve(uv_cost, grid, SchemeParams(hamiltonian_mode=mode))
            dev = np.max(np.abs(levels[-1].values - target)[mask])
            assert dev <= 1e-2, (mode, dev)

    def test_uv_drift_value_is_state(self, uv_drift):
        grid = SpaceGrid.for_problem(uv_drift, 141)
        levels = solve(uv_drift, grid, SchemeParams())
        mask = window_mask(uv_drift, grid)
        dev = np.max(np.abs(levels[-1].values - grid.axes[0])[mask])
        assert dev <= 1e-4

    def test_uv_square_relaxed_value_closed_form(self):
        # the relaxed game is [[a, b], [b, a]] with value (a + b) / 2, so the
        # upwind scheme adds h/2 V_xx = h per unit time to V = x^2 + T - t:
        # V_h = x^2 + (1 + h)(T - t) exactly on the window the boundary misses
        prob = load_problem("uv_square")
        grid = SpaceGrid.for_problem(prob, 41)
        x, h = grid.axes[0], grid.h[0]
        mask = window_mask(prob, grid)
        levels = solve(prob, grid, SchemeParams())
        assert len(levels) > 2
        for fld in levels:
            exact = x * x + (1.0 + h) * (prob.T - fld.t)
            assert np.max(np.abs(fld.values - exact)[mask]) <= 1e-12, fld.t

    def test_terminal_condition(self, heat):
        grid = SpaceGrid.for_problem(heat, 101)
        levels = solve(heat, grid, SchemeParams())
        assert np.array_equal(levels[0].values, np.cos(grid.axes[0]))

    def test_sup_bound_respected(self, uv_cost):
        grid = SpaceGrid.for_problem(uv_cost, 101)
        for levels in (solve(uv_cost, grid, SchemeParams(hamiltonian_mode="pure_lower")),):
            for fld in levels:
                fld.check_bound(uv_cost)

    def test_orientation_flag_is_bitwise_irrelevant(self, uv_drift):
        # the relaxed local game has a saddle point and both sweep
        # orientations read it through one canonical solve, so relaxed
        # W_pi and U_pi coincide bitwise (uv_drift, where solving the
        # games as sup-inf and as inf-sup differed in the last bits)
        grid = SpaceGrid.for_problem(uv_drift, 51)
        pi = Partition.uniform(uv_drift.T, 8)
        low = dpp_sweep(uv_drift, grid, pi, SchemeParams(), "lower", record_strategies=True)
        up = dpp_sweep(uv_drift, grid, pi, SchemeParams(), "upper", record_strategies=True)
        for fa, fb in zip(low.levels, up.levels):
            assert np.array_equal(fa.values, fb.values)
        assert np.array_equal(low.mu, up.mu) and np.array_equal(low.nu, up.nu)


@pytest.fixture(scope="module")
def drift_cost3():
    return games3.drift_cost3()


class TestBatchedGames:
    def test_game_values_match_per_node_simplex(self, drift_cost3):
        grid = SpaceGrid.for_problem(drift_cost3, 41)
        levels = solve(drift_cost3, grid, SchemeParams())
        stepper = Stepper(drift_cost3, grid, 1e-9)
        solved = 0
        for fld in levels[:-1]:
            ent = stepper.entries(fld.values, fld.t)
            vals, mu, nu = stepper.game_values(ent, "relaxed", fld.t, collect_strategies=True)
            for j in range(ent.shape[-1]):
                game = ent[:, :, j]
                ref, _, _, _ = _solve_entries(game, 1e-9)
                assert abs(vals[j] - ref) <= 1e-12
                # every node carries its certificate
                assert (game @ nu[j]).max() - (mu[j] @ game).min() <= 1e-9
                solved += 1
        assert solved == 39 * (len(levels) - 1)
        # the solve took the kernel path, warm-started level to level
        assert np.all(stepper._kernels >= 0)

    def test_failure_names_the_node(self, drift_cost3):
        # at tol = 1e-300 only rounding-exact certificates pass, so the
        # simplex fallback must give up on some node of the first level
        grid = SpaceGrid.for_problem(drift_cost3, 41)
        with pytest.raises(GameError, match=r"local game at grid node \((\d+),\) \(t=1\.0\)") as err:
            solve(drift_cost3, grid, SchemeParams(game_tol=1e-300))
        node = int(re.search(r"grid node \((\d+),\)", str(err.value)).group(1))
        assert 1 <= node <= 39

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_generator_names_the_node(self, drift_cost3, bad):
        grid = SpaceGrid.for_problem(drift_cost3, 41)
        stepper = Stepper(drift_cost3, grid)
        ent = stepper.entries(terminal_field(drift_cost3, grid).values, 0.5)
        ent[1, 2, 7] = bad
        with pytest.raises(GameError, match=rf"local game at grid node \(8,\) \(t=0\.5\): "
                                            rf"non-finite payoff {bad} at entry \(1, 2\)") as err:
            stepper.game_values(ent, "relaxed", 0.5)
        assert err.value.node == 7

    def test_asymmetric_running_cost_value(self):
        # b = 0, phi = 0, f = M[u, v]: the field stays flat, every local game
        # is M, and V(t) = (T - t) val(M).  M is completely mixed, so
        # val(M) = 1 / (1^T M^-1 1) with positive optimal strategies.
        mat = np.array([[0.5, -0.4, 0.2], [-0.3, 0.6, 0.1], [0.2, 0.0, -0.5]])
        x = np.linalg.solve(mat.T, np.ones(3))
        y = np.linalg.solve(mat, np.ones(3))
        assert np.all(x / x.sum() > 0) and np.all(y / y.sum() > 0)
        val = 1.0 / x.sum()
        prob = games3.game3_problem("cost3", "0", games3.payoff3(mat.tolist()), "0",
                                    sup_b=0.0, sup_f=0.6, phi_bound=0.0)
        grid = SpaceGrid.for_problem(prob, 41)
        levels = solve(prob, grid, SchemeParams())
        for fld in levels:
            assert np.max(np.abs(fld.values - (prob.T - fld.t) * val)) <= 1e-12


def yz_pair(d):
    """Two problems equal but for f = u1*v1 against u1*v1 + 0.3*z1 - 0.2*y (- 0.1*z2)."""
    if d == 1:
        cfg = {
            "d": 1, "b": ["u1*v1 - 0.1*x1"], "sigma": [["0.8 + 0.1*cos(x1)"]],
            "phi": "cos(x1)", "domain": {"min": [-3.0], "max": [3.0]},
            "bounds": {"sup_b": 1.3, "sup_sigma": 0.9},
        }
        yz = "u1*v1 + 0.3*z1 - 0.2*y"
    else:
        cfg = {
            "d": 2, "b": ["u1*v1 - 0.1*x1", "0.5*(u1-v1) + 0.1*x2"],
            "sigma": [["1", "0.2"], ["0.1", "0.8"]], "phi": "cos(x1)*cos(x2)",
            "domain": {"min": [-3.0, -3.0], "max": [3.0, 3.0]},
            "bounds": {"sup_b": 1.3, "sup_sigma": 1.0},
        }
        yz = "u1*v1 + 0.3*z1 - 0.1*z2 - 0.2*y"
    cfg.update(name=f"yz{d}", T=1.0, U={"points": [[-1.0], [1.0]]},
               V={"points": [[-1.0], [1.0]]}, condition41_mode="f_linear_in_z")
    cfg["bounds"].update(lip_y_f=0.2, sup_f=1.0, sup_phi=1.0, value_lip=1.0)
    base = load_problem({**cfg, "f": "u1*v1", "bounds": {**cfg["bounds"], "lip_y_f": 0.0}})
    return base, load_problem({**cfg, "f": yz})


class TestRunningCostInYZ:
    @pytest.mark.parametrize("d", [1, 2])
    def test_entries_add_upwind_z_and_y_terms(self, d):
        base, yz = yz_pair(d)
        grid = SpaceGrid.for_problem(base, 17 if d == 1 else 13)
        vals = np.random.default_rng(6).uniform(-1, 1, grid.shape)
        t = 0.4
        e0 = Stepper(base, grid).entries(vals, t)
        e1 = Stepper(yz, grid).entries(vals, t)
        assert e1.shape == e0.shape
        h = grid.h
        inner = (slice(1, -1),) * d
        c = vals[inner]
        xs = [m[inner] for m in grid.meshes()]
        for iu, u in enumerate((-1.0, 1.0)):
            for iv, v in enumerate((-1.0, 1.0)):
                # upwind gradient: forward difference where the drift is >= 0
                p = []
                if d == 1:
                    b = [u * v - 0.1 * xs[0]]
                    sig = np.array([[0.8 + 0.1 * np.cos(xs[0])]])
                else:
                    b = [u * v - 0.1 * xs[0], 0.5 * (u - v) + 0.1 * xs[1]]
                    sig = np.array([[1.0, 0.2], [0.1, 0.8]])
                for i in range(d):
                    up = [slice(1, -1)] * d
                    dn = [slice(1, -1)] * d
                    up[i], dn[i] = slice(2, None), slice(None, -2)
                    fwd = (vals[tuple(up)] - c) / h[i]
                    bwd = (c - vals[tuple(dn)]) / h[i]
                    p.append(np.where(b[i] >= 0.0, fwd, bwd))
                z = [sum(p[i] * sig[i, j] for i in range(d)) for j in range(d)]
                extra = 0.3 * z[0] - 0.2 * c
                if d == 2:
                    extra = extra - 0.1 * z[1]
                scale = 1.0 + np.max(np.abs(e0[iu, iv]))
                assert np.max(np.abs(e1[iu, iv] - e0[iu, iv] - extra)) <= 1e-13 * scale


class TestComparisonPrinciple:
    """Monotone-step comparison on random field pairs.

    Exact in exact arithmetic; separately computed updates may differ by
    rounding, so the assertion allows an accumulation-scaled float slack.
    """

    @pytest.mark.parametrize("name", ["uv_running_cost", "heat_cosine", "uv_drift"])
    @pytest.mark.parametrize("mode", ["relaxed", "pure_lower", "pure_upper"])
    def test_y_free_comparison(self, name, mode):
        prob = load_problem(name)
        grid = SpaceGrid.for_problem(prob, 51)
        dt = 0.9 * cfl_limit(prob, grid)
        rng = np.random.default_rng(hash(name + mode) % 2**32)
        stepper = Stepper(prob, grid)
        for _ in range(30):
            f1 = rng.uniform(-1.0, 1.0, 51)
            f2 = f1 + rng.uniform(0.0, 1.0, 51)
            out1 = stepper.step(f1, 0.5, dt, mode)
            out2 = stepper.step(f2, 0.5, dt, mode)
            slack = 1e-12 * (1.0 + np.max(np.abs(f2)) / grid.h[0] ** 2)
            assert np.all(out1 <= out2 + slack)

    def test_y_dependent_comparison_with_relaxation(self):
        prob = variant("uv_running_cost", name="uv_ydep", f="u1*v1 - y",
                       bounds={"lip_y_f": 1.0, "sup_f": 1.0})
        grid = SpaceGrid.for_problem(prob, 51)
        dt = 0.9 * cfl_limit(prob, grid)
        lip_y = prob.bounds.lip_y_f
        rng = np.random.default_rng(99)
        stepper = Stepper(prob, grid)
        for _ in range(30):
            f1 = rng.uniform(-1.0, 1.0, 51)
            f2 = f1 + rng.uniform(0.0, 1.0, 51)
            out1 = stepper.step(f1, 0.5, dt, "relaxed")
            out2 = stepper.step(f2, 0.5, dt, "relaxed")
            relax = dt * lip_y * np.max(f2 - f1)
            slack = 1e-12 * (1.0 + np.max(np.abs(f2)) / grid.h[0] ** 2)
            assert np.all(out1 <= out2 + relax + slack)


class TestLipschitzPreservation:
    @pytest.mark.parametrize("name", ["uv_running_cost", "heat_cosine", "uv_drift"])
    def test_discrete_lipschitz_bounded(self, name):
        prob = load_problem(name)
        grid = SpaceGrid.for_problem(prob, 141)
        levels = solve(prob, grid, SchemeParams())
        lip = discrete_lipschitz(levels[-1].values, grid)
        assert lip <= prob.bounds.value_lip + 0.1 + grid.h[0]


class TestGapReport:
    def test_uv_running_cost_gap(self, uv_cost):
        grid = SpaceGrid.for_problem(uv_cost, 101)
        rep = gap_report(uv_cost, grid, SchemeParams())
        assert rep.pure_gap == pytest.approx(2.0, abs=1e-2)
        assert rep.mixed_vs_lower == pytest.approx(1.0, abs=1e-2)
        assert rep.mixed_vs_upper == pytest.approx(1.0, abs=1e-2)

    def test_heat_gaps_vanish(self, heat):
        grid = SpaceGrid.for_problem(heat, 101)
        rep = gap_report(heat, grid, SchemeParams())
        assert rep.pure_gap <= 1e-12
        assert rep.mixed_vs_lower <= 1e-12

    def test_uv_drift_gap(self, uv_drift):
        grid = SpaceGrid.for_problem(uv_drift, 101)
        rep = gap_report(uv_drift, grid, SchemeParams())
        assert rep.pure_gap == pytest.approx(2.0, abs=2e-2)

    def test_keeps_no_whole_solve(self, heat):
        # each mode's solve keeps its last level only; with whole solves of
        # 1 236 levels each kept, the peak at nx = 401 was 8.7 MB
        grid = SpaceGrid.for_problem(heat, 401)
        tracemalloc.start()
        try:
            gap_report(heat, grid, SchemeParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_memory_independent_of_step_count(self, heat):
        # no coefficient of heat_cosine names t, so a solve keeps no table
        # per step; at 4 000 steps the schedule used to hold 0.56 MB more
        grid = SpaceGrid.for_problem(heat, 201)
        peaks = []
        for n in (400, 4000):
            tracemalloc.start()
            try:
                gap_report(heat, grid, SchemeParams(dt=heat.T / n))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 0.05e6, peaks


class TestPeriodicBoundary:
    def test_periodic_heat_conserves_profile(self):
        # on a full period the scheme must keep the cosine shape decaying
        prob = variant("heat_cosine", name="heat_periodic",
                       domain={"min": [-np.pi], "max": [np.pi], "boundary": "periodic"})
        grid = SpaceGrid.for_problem(prob, 129)
        levels = solve(prob, grid, SchemeParams())
        exact = math.exp(-0.5) * np.cos(grid.axes[0])
        assert np.max(np.abs(levels[-1].values - exact)) <= 2e-3
        assert levels[-1].values[0] == levels[-1].values[-1]


def hand_written_fill(new, mode):
    """The boundary fills of a level in d = 1 and d = 2, written out per case."""
    if mode == "clamp":
        if new.ndim == 1:
            new[0] = new[1]
            new[-1] = new[-2]
        else:
            new[0, :] = new[1, :]
            new[-1, :] = new[-2, :]
            new[:, 0] = new[:, 1]
            new[:, -1] = new[:, -2]
    elif new.ndim == 1:
        new[-1] = new[0]
    else:
        new[-1, :-1] = new[0, :-1]
        new[:-1, -1] = new[:-1, 0]
        new[-1, -1] = new[0, 0]


class TestBoundaryFill:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("boundary", ["clamp", "periodic"])
    def test_finish_matches_hand_written_fill(self, monkeypatch, d, boundary):
        prob = stencil_problem(d, [["0.9"]] if d == 1 else SIGMA_NEG, boundary=boundary)
        grid = SpaceGrid.for_problem(prob, 9 if d == 1 else 7)
        stepper = Stepper(prob, grid)
        rng = np.random.default_rng(19 + d)
        values = rng.uniform(-1.0, 1.0, grid.shape)
        vals = rng.uniform(-1.0, 1.0, stepper.work_shape)
        dt = 0.01
        want = np.full(grid.shape, np.nan)
        want[stepper._work] = values[stepper._work] + dt * vals
        hand_written_fill(want, boundary)
        assert np.isfinite(want).all()
        # every new array starts as NaN, so a node the fill never writes
        # shows up (as a NonFiniteFieldError or in the bytes)
        with monkeypatch.context() as patch:
            patch.setattr(np, "empty", lambda shape, *a, **kw: np.full(shape, np.nan))
            got = stepper._finish(values, vals, dt, 0.5)
        assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def heat2d():
    return load_problem({
        "name": "heat2d",
        "d": 2,
        "T": 0.25,
        "b": ["0", "0"],
        "sigma": [["1", "0"], ["0", "1"]],
        "f": "0",
        "phi": "cos(x1)*cos(x2)",
        "U": {"points": [[0.0]]},
        "V": {"points": [[0.0]]},
        "domain": {"min": [-3.5, -3.5], "max": [3.5, 3.5]},
        "condition41_mode": "sigma_uncontrolled",
        "bounds": {
            "sup_b": 0.0, "sup_sigma": 1.0, "lip_y_f": 0.0, "sup_f": 0.0,
            "sup_phi": 1.0, "value_lip": 1.5,
        },
    })


class TestTwoDimensional:
    def test_2d_heat_analytic(self, heat2d):
        grid = SpaceGrid.for_problem(heat2d, 71)
        levels = solve(heat2d, grid, SchemeParams())
        x1, x2 = grid.meshes()
        exact = math.exp(-0.25) * np.cos(x1) * np.cos(x2)
        mask = window_mask(heat2d, grid)
        assert np.max(np.abs(levels[-1].values - exact)[mask]) <= 5e-3

    def test_2d_cross_stencil_exact_on_quadratics(self):
        # generator entries must reproduce 0.5 tr(a D2 V) + b.p exactly for
        # quadratic fields (the cross stencil is second-order consistent)
        prob = load_problem({
            "name": "skew2d",
            "d": 2,
            "T": 1.0,
            "b": ["0.3", "-0.2"],
            "sigma": [["1", "0.4"], ["0", "0.9"]],
            "f": "0",
            "phi": "0",
            "U": {"points": [[0.0]]},
            "V": {"points": [[0.0]]},
            "domain": {"min": [-2.0, -2.0], "max": [2.0, 2.0]},
            "condition41_mode": "sigma_uncontrolled",
            "bounds": {
                "sup_b": 0.3, "sup_sigma": 1.1, "lip_y_f": 0.0, "sup_f": 0.0,
                "sup_phi": 0.0, "value_lip": 0.0,
            },
        })
        grid = SpaceGrid.for_problem(prob, 21)
        x1, x2 = grid.meshes()
        h1, h2 = grid.h
        # V = 0.5 x1^2 + x1 x2 - 0.3 x2^2 + 2 x1 - x2
        vals = 0.5 * x1**2 + x1 * x2 - 0.3 * x2**2 + 2 * x1 - x2
        stepper = Stepper(prob, grid)
        ent = stepper.entries(vals, 0.0)[0, 0]
        sig = np.array([[1.0, 0.4], [0.0, 0.9]])
        a = sig @ sig.T
        hess = np.array([[1.0, 1.0], [1.0, -0.6]])
        # upwind first differences carry the one-sided h/2 * V'' bias:
        # b1 > 0 uses forward (+h1/2 hess11), b2 < 0 backward (-h2/2 hess22)
        grad1 = x1[1:-1, 1:-1] + x2[1:-1, 1:-1] + 2.0 + 0.5 * h1 * hess[0, 0]
        grad2 = x1[1:-1, 1:-1] - 0.6 * x2[1:-1, 1:-1] - 1.0 - 0.5 * h2 * hess[1, 1]
        expected = 0.5 * np.trace(a @ hess) + 0.3 * grad1 - 0.2 * grad2
        assert np.max(np.abs(ent - expected)) <= 1e-10

    def test_2d_comparison(self, heat2d):
        grid = SpaceGrid.for_problem(heat2d, 21)
        dt = 0.9 * cfl_limit(heat2d, grid)
        rng = np.random.default_rng(4)
        stepper = Stepper(heat2d, grid)
        for _ in range(10):
            f1 = rng.uniform(-1, 1, (21, 21))
            f2 = f1 + rng.uniform(0, 1, (21, 21))
            o1 = stepper.step(f1, 0.2, dt, "relaxed")
            o2 = stepper.step(f2, 0.2, dt, "relaxed")
            slack = 1e-12 * (1.0 + 1.0 / grid.h[0] ** 2)
            assert np.all(o1 <= o2 + slack)


class TestValueField:
    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteFieldError, match="node"):
            ValueField(t=0.0, values=np.array([1.0, np.nan, 0.0]))

    def test_constructor_copies_the_callers_array(self):
        vals = np.array([1.0, 2.0, 3.0])
        fld = ValueField(t=0.0, values=vals)
        vals[0] = 9.0
        assert fld.values.tolist() == [1.0, 2.0, 3.0]
        assert vals.flags.writeable and not fld.values.flags.writeable

    def test_bound_check(self, uv_cost):
        fld = ValueField(t=0.0, values=np.full(5, 5.0))
        with pytest.raises(NonFiniteFieldError, match="bound"):
            fld.check_bound(uv_cost)


class TestSpaceGrid:
    def test_spacing(self):
        grid = SpaceGrid(np.array([-1.0]), np.array([1.0]), (21,))
        assert grid.h[0] == pytest.approx(0.1)
        assert grid.axes[0][0] == -1.0 and grid.axes[0][-1] == 1.0

    def test_minimum_nodes(self):
        with pytest.raises(ValueError):
            SpaceGrid(np.array([-1.0]), np.array([1.0]), (2,))


def work_region(prob, grid, values):
    """The level's work region, neighbours by np.roll, the work states and control indices."""
    d = grid.d
    m, k = prob.u_grid.n, prob.v_grid.n
    if prob.domain.boundary_mode == "clamp":
        work, base, cut = (slice(1, -1),) * d, values, (slice(1, -1),) * d
    else:
        work, cut = (slice(None, -1),) * d, (slice(None),) * d
        base = values[work]

    def nb(*off):
        return np.roll(base, tuple(-o for o in off), axis=tuple(range(d)))[cut]

    x = np.stack([mesh[work] for mesh in grid.meshes()], axis=-1)
    ones = (1,) * d
    return nb, x, np.arange(m).reshape((m, 1) + ones), np.arange(k).reshape((1, k) + ones)


def roll_reference_entries(prob, grid, values, t):
    """The generator in difference form, neighbours taken with np.roll.

    Upwind first differences, central second differences, the
    a01-sign-adapted cross stencil and, when f names y or z, y = V and
    z = upwind p . sigma, each computed as a difference of neighbours.
    """
    d, h = grid.d, grid.h
    m, k = prob.u_grid.n, prob.v_grid.n
    nb, x, iu, iv = work_region(prob, grid, values)
    b, sig, fval = prob.coefficients(t, x, iu, iv)
    c = nb(*(0,) * d)
    if d == 1:
        p0, m0 = nb(1), nb(-1)
        fwd, bwd = [(p0 - c) / h[0]], [(c - m0) / h[0]]
        second = (p0 - 2.0 * c + m0) / h[0] ** 2
        drift = np.maximum(b[0], 0.0) * fwd[0] - np.maximum(-b[0], 0.0) * bwd[0]
        diff = 0.5 * (sig[0][0] * sig[0][0]) * second
    else:
        p0, m0, p1, m1 = nb(1, 0), nb(-1, 0), nb(0, 1), nb(0, -1)
        fwd = [(p0 - c) / h[0], (p1 - c) / h[1]]
        bwd = [(c - m0) / h[0], (c - m1) / h[1]]
        sec0 = (p0 - 2.0 * c + m0) / h[0] ** 2
        sec1 = (p1 - 2.0 * c + m1) / h[1] ** 2
        a00 = sig[0][0] * sig[0][0] + sig[0][1] * sig[0][1]
        a01 = sig[0][0] * sig[1][0] + sig[0][1] * sig[1][1]
        a11 = sig[1][0] * sig[1][0] + sig[1][1] * sig[1][1]
        cross_pos = (2.0 * c + nb(1, 1) + nb(-1, -1) - p0 - m0 - p1 - m1) / (2.0 * h[0] * h[1])
        cross_neg = -(2.0 * c + nb(1, -1) + nb(-1, 1) - p0 - m0 - p1 - m1) / (2.0 * h[0] * h[1])
        cross = np.where(np.asarray(a01) >= 0.0, cross_pos, cross_neg)
        drift = (np.maximum(b[0], 0.0) * fwd[0] - np.maximum(-b[0], 0.0) * bwd[0]
                 + np.maximum(b[1], 0.0) * fwd[1] - np.maximum(-b[1], 0.0) * bwd[1])
        diff = 0.5 * a00 * sec0 + 0.5 * a11 * sec1 + a01 * cross
    if prob.f_needs_yz:
        p = [np.where(np.asarray(b[i]) >= 0.0, fwd[i], bwd[i]) for i in range(d)]
        z = [p[0] * sig[0][j] + p[1] * sig[1][j] if d == 2 else p[0] * sig[0][j]
             for j in range(d)]
        fval = prob.coefficients(t, x, iu, iv, c, np.stack(np.broadcast_arrays(*z), axis=-1))[2]
    return np.broadcast_to(diff + drift + fval, (m, k) + c.shape)


def difference_pattern(d, h):
    """Each stencil feature's difference operator, as roll_reference_entries
    writes it, applied to the unit neighbourhoods: rows are the features
    max(b_i, 0), max(-b_i, 0) per axis, (sigma sigma^T)_ii per axis and, for
    d = 2, max(a01, 0), max(-a01, 0); columns the offsets in {-1, 0, 1}^d.
    """
    offsets = list(itertools.product((-1, 0, 1), repeat=d))
    unit = np.eye(len(offsets))

    def nb(*off):
        return unit[offsets.index(off)]

    c = nb(*(0,) * d)
    fwd = [nb(*(int(j == i) for j in range(d))) for i in range(d)]
    bwd = [nb(*(-int(j == i) for j in range(d))) for i in range(d)]
    rows = [r for i in range(d) for r in ((fwd[i] - c) / h[i], (bwd[i] - c) / h[i])]
    rows += [0.5 * ((fwd[i] - 2.0 * c + bwd[i]) / h[i] ** 2) for i in range(d)]
    if d == 2:
        den = 2.0 * h[0] * h[1]
        axes = fwd[0] + bwd[0] + fwd[1] + bwd[1]
        rows += [(2.0 * c + nb(1, 1) + nb(-1, -1) - axes) / den,
                 (2.0 * c + nb(1, -1) + nb(-1, 1) - axes) / den]
    return np.array(rows) + 0.0  # no negative zeros


def stencil_features(prob, x, iu, iv, t):
    """(m*k, n_features, nodes) features of b and sigma; nodes is 1 when both are free of x."""
    b, sig, _ = prob.coefficients(t, x, iu, iv)
    feats = [np.maximum(s, 0.0) for bi in b for s in (bi, -bi)]
    feats += [row[0] * row[0] if prob.d == 1 else row[0] * row[0] + row[1] * row[1]
              for row in sig]
    if prob.d == 2:
        a01 = sig[0][0] * sig[1][0] + sig[0][1] * sig[1][1]
        feats += [np.maximum(a01, 0.0), np.maximum(-a01, 0.0)]
    shape = np.broadcast_shapes(iu.shape, iv.shape, *(np.shape(f) for f in feats))
    stack = np.stack([np.broadcast_to(f, shape) for f in feats], axis=2)
    return stack.reshape(shape[0] * shape[1], len(feats), -1), b, sig


def weights_reference_entries(prob, grid, values, t):
    """The generator as the weights times the neighbourhood, from a fresh evaluation.

    The pattern comes from difference_pattern and the neighbourhood from
    np.roll; the reduction is the scheme's: one matrix product when b and
    sigma are free of x, else the features times (pattern @ S) node by node.
    """
    d = grid.d
    nb, x, iu, iv = work_region(prob, grid, values)
    pattern = difference_pattern(d, grid.h)
    hood = np.stack([nb(*off).ravel() for off in itertools.product((-1, 0, 1), repeat=d)])
    feats, b, sig = stencil_features(prob, x, iu, iv, t)
    if feats.shape[-1] == 1:
        gen = (feats[..., 0] @ pattern) @ hood
    else:
        gen = np.einsum("pfn,fn->pn", feats, pattern @ hood)
    c = nb(*(0,) * d)
    gen = gen.reshape((iu.shape[0], iv.shape[1]) + c.shape)
    if prob.f_needs_yz:
        grad = (pattern[:2 * d] @ hood).reshape((2 * d,) + c.shape)
        p = [np.where(np.asarray(b[i]) >= 0.0, grad[2 * i], -grad[2 * i + 1]) for i in range(d)]
        z = [p[0] * sig[0][j] + p[1] * sig[1][j] if d == 2 else p[0] * sig[0][j]
             for j in range(d)]
        gen += prob.coefficients(t, x, iu, iv, c, np.stack(np.broadcast_arrays(*z), axis=-1))[2]
    else:
        gen += prob.coefficients(t, x, iu, iv)[2]
    return gen


def stencil_problem(d, sigma, boundary="clamp", f="u1*v1", **over):
    """A 2x2 game with x- and t-dependent drift on [-3, 3]^d or [-pi, pi]^d."""
    lo = -math.pi if boundary == "periodic" else -3.0
    b = ["u1*v1 - 0.1*x1 + 0.2*sin(x1)", "0.5*(u1-v1)*cos(t) + 0.1*x2"][:d]
    return load_problem({
        "name": f"stencil{d}", "d": d, "T": 1.0, "b": b, "sigma": sigma, "f": f,
        "phi": "cos(x1)" if d == 1 else "cos(x1)*cos(x2)",
        "U": {"points": [[-1.0], [1.0]]}, "V": {"points": [[-1.0], [1.0]]},
        "domain": {"min": [lo] * d, "max": [-lo] * d, "boundary": boundary},
        "condition41_mode": "f_linear_in_z",
        "bounds": {"sup_b": 2.0, "sup_sigma": 1.1, "lip_y_f": 0.2, "sup_f": 2.0,
                   "sup_phi": 1.0, "value_lip": 1.0},
        **over,
    })


SIGMA_NEG = [["1", "-0.2"], ["0.1", "0.8"]]  # a01 = -0.06 everywhere
SIGMA_X_SIGN = [["1", "0.3*sin(x1)"], ["0", "1"]]  # a01 changes sign across nodes
SIGMA_U_SIGN = [["1", "0.3*u1"], ["0.1", "0.8"]]  # a01 changes sign across controls
YZ_F = {1: "u1*v1 + 0.3*z1 - 0.2*y", 2: "u1*v1 + 0.3*z1 - 0.1*z2 - 0.2*y"}
X_FREE_B = ["u1*v1 - 0.3", "0.5*(u1-v1)*cos(t)"]

STENCIL_CASES = {
    "2d_negative_a01": dict(d=2, sigma=SIGMA_NEG),
    "2d_a01_sign_across_nodes": dict(d=2, sigma=SIGMA_X_SIGN),
    "2d_a01_sign_across_controls": dict(d=2, sigma=SIGMA_U_SIGN),
    "2d_periodic": dict(d=2, sigma=SIGMA_X_SIGN, boundary="periodic"),
    "2d_periodic_negative_a01": dict(d=2, sigma=SIGMA_NEG, boundary="periodic"),
    "1d_periodic": dict(d=1, sigma=[["0.8 + 0.1*cos(x1)"]], boundary="periodic"),
    "1d_yz": dict(d=1, sigma=[["0.8 + 0.1*cos(x1)"]], f=YZ_F[1]),
    "1d_periodic_yz": dict(d=1, sigma=[["0.9"]], boundary="periodic", f=YZ_F[1]),
    "2d_yz_negative_a01": dict(d=2, sigma=SIGMA_NEG, f=YZ_F[2]),
    "2d_periodic_yz": dict(d=2, sigma=SIGMA_X_SIGN, boundary="periodic", f=YZ_F[2]),
    # b and sigma free of x: the weights are one (pairs, 3^d) matrix
    "2d_x_free": dict(d=2, sigma=SIGMA_NEG, b=X_FREE_B),
    "2d_x_free_periodic_a01_sign_across_controls": dict(d=2, sigma=SIGMA_U_SIGN, b=X_FREE_B,
                                                        boundary="periodic"),
    "1d_x_free_yz": dict(d=1, sigma=[["0.9"]], b=X_FREE_B[:1], f=YZ_F[1]),
}


# only some entries name t: the second drift entry (in d=2), a row of
# sigma, f, or f through y and z evaluated at every call
SIGMA_T_ROW = [["1", "0.2*cos(t)"], ["0.1", "0.8"]]
TIME_CASES = {
    "2d_drift": dict(d=2, sigma=SIGMA_NEG),
    "2d_sigma_row_and_f": dict(d=2, sigma=SIGMA_T_ROW, f="u1*v1*cos(t)"),
    "2d_sigma_row_yz": dict(d=2, sigma=SIGMA_T_ROW, f=YZ_F[2]),
    "1d_sigma": dict(d=1, sigma=[["0.8 + 0.1*cos(t)"]]),
    "1d_f": dict(d=1, sigma=[["0.9"]], f="u1*v1*sin(t) + 0.1*x1"),
    "1d_none": dict(d=1, sigma=[["0.9"]]),
}


class TestStencilAgainstRollReference:
    @pytest.mark.parametrize("case", sorted(STENCIL_CASES))
    def test_entries_bitwise_equal_reference(self, case):
        prob = stencil_problem(**STENCIL_CASES[case])
        grid = SpaceGrid.for_problem(prob, 17 if prob.d == 1 else 13)
        stepper = Stepper(prob, grid)
        assert stepper._pattern.tobytes() == difference_pattern(prob.d, grid.h).tobytes()
        rng = np.random.default_rng(11)
        for t in (0.9, 0.3):  # the drift depends on t: coefficients re-evaluated
            vals = rng.uniform(-1.0, 1.0, grid.shape)
            ent = stepper.entries(vals, t)
            ref = weights_reference_entries(prob, grid, vals, t)
            assert ent.shape == ref.shape and ent.dtype == ref.dtype
            # bitwise, signed zeros included
            assert np.array_equal(ent.view(np.int64), np.ascontiguousarray(ref).view(np.int64))

    @pytest.mark.parametrize("case", sorted(STENCIL_CASES.keys() | TIME_CASES.keys()))
    def test_entries_match_difference_form(self, case):
        # The weights form and the difference form round differently.  Each
        # rounds at most 16 times along the path of any one term
        # F_f * P_fj * S_j (features, pattern, neighbourhood), so per entry
        # |difference| <= 32 eps (sum over f, j of |F_f| |P_fj| |S_j| + |entry|).
        # A running cost that names z adds its gradient terms: every YZ_F
        # has |df/dz_j| <= 1, and z_j = sum_i p_i sigma_ij.
        prob = stencil_problem(**{**STENCIL_CASES, **TIME_CASES}[case])
        grid = SpaceGrid.for_problem(prob, 17 if prob.d == 1 else 13)
        d = prob.d
        stepper = Stepper(prob, grid)
        pattern = np.abs(difference_pattern(d, grid.h))
        rng = np.random.default_rng(12)
        for t in (0.9, 0.3):
            vals = rng.uniform(-1.0, 1.0, grid.shape)
            ent = stepper.entries(vals, t)
            ref = roll_reference_entries(prob, grid, vals, t)
            nb, x, iu, iv = work_region(prob, grid, vals)
            hood = np.abs(np.stack([nb(*o).ravel()
                                    for o in itertools.product((-1, 0, 1), repeat=d)]))
            feats, _, sig = stencil_features(prob, x, iu, iv, t)
            feats = np.abs(np.broadcast_to(feats, feats.shape[:2] + hood.shape[1:]))
            mass = np.einsum("pfn,fn->pn", feats, pattern @ hood).reshape(ent.shape)
            if prob.f_needs_yz:
                for i in range(d):
                    grad = ((pattern[2 * i] + pattern[2 * i + 1]) @ hood).reshape(ent.shape[2:])
                    mass = mass + sum(np.abs(sig[i][j]) for j in range(d)) * grad
            bound = 32 * np.finfo(float).eps * (mass + np.abs(ref))
            assert np.all(np.abs(ent - ref) <= bound), case

    def test_cases_reach_both_cross_signs(self):
        x = np.linspace(-3.0, 3.0, 13)[:, None, None]
        for sigma, idx in ((SIGMA_X_SIGN, 0), (SIGMA_U_SIGN, np.arange(2)[:, None, None])):
            prob = stencil_problem(2, sigma)
            _, sig, _ = prob.coefficients(0.5, np.concatenate([x, x], axis=-1), idx, 0)
            a01 = np.asarray(sig[0][0] * sig[1][0] + sig[0][1] * sig[1][1])
            assert a01.min() < 0.0 < a01.max()


class TestPureEnvelopes:
    @pytest.mark.parametrize("m,k", [(1, 3), (2, 2), (3, 2), (3, 3)])
    def test_envelopes_equal_axis_reductions(self, m, k):
        # every m x k game over {-1, -0.0, 0.0, 1}: ties and signed zeros
        prob = stencil_problem(1, [["0.9"]], U={"points": [[u] for u in np.linspace(-1, 1, m)]},
                               V={"points": [[v] for v in np.linspace(-1, 1, k)]})
        stepper = Stepper(prob, SpaceGrid.for_problem(prob, 17))
        signs = np.array([-1.0, -0.0, 0.0, 1.0])
        ent = np.array(list(itertools.product(signs, repeat=m * k))).T.reshape(m, k, -1)
        want = {"pure_lower": np.min(ent, axis=1).max(axis=0),
                "pure_upper": np.max(ent, axis=0).min(axis=0)}
        for mode, ref in want.items():
            vals, mu, nu = stepper.game_values(ent, mode, 0.0, collect_strategies=True)
            assert vals.tobytes() == ref.tobytes()
            assert stepper.game_values(ent, mode, 0.0)[0].tobytes() == ref.tobytes()
            # point masses on the lowest index that attains the envelope
            if mode == "pure_lower":
                iu = np.argmax(ent.min(axis=1) == vals, axis=0)
                iv = np.argmax(ent[iu, :, np.arange(ent.shape[-1])].T == vals, axis=0)
            else:
                iv = np.argmax(ent.max(axis=0) == vals, axis=0)
                iu = np.argmax(ent[:, iv, np.arange(ent.shape[-1])] == vals, axis=0)
            assert np.array_equal(mu, np.eye(m)[iu]) and np.array_equal(nu, np.eye(k)[iv])

    @pytest.mark.parametrize("mode", ["relaxed", "pure_lower", "pure_upper"])
    def test_singleton_game_is_its_entry(self, monkeypatch, heat, mode):
        # a 1x1 game takes the envelope fold in every mode, never the game solver
        def refuse(*args):
            raise AssertionError("a 1x1 game reached solve_games")

        monkeypatch.setattr(pde, "solve_games", refuse)
        stepper = Stepper(heat, SpaceGrid.for_problem(heat, 11))
        ent = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.5, -2.5, 0.25])
        ent = ent.reshape(1, 1, *stepper.work_shape)
        vals, mu, nu = stepper.game_values(ent, mode, 0.0, collect_strategies=True)
        assert vals.tobytes() == ent[0, 0].tobytes()
        assert stepper.game_values(ent, mode, 0.0)[0].tobytes() == ent[0, 0].tobytes()
        ones = np.ones(stepper.work_shape + (1,))
        assert mu.tobytes() == ones.tobytes() and nu.tobytes() == ones.tobytes()


class TestAliasing:
    @pytest.mark.parametrize("boundary", ["clamp", "periodic"])
    def test_entries_result_survives_later_calls(self, boundary):
        prob = stencil_problem(2, SIGMA_X_SIGN, boundary=boundary)
        grid = SpaceGrid.for_problem(prob, 13)
        stepper = Stepper(prob, grid)
        rng = np.random.default_rng(5)
        v1, v2 = rng.uniform(-1.0, 1.0, (2,) + grid.shape)
        first = stepper.entries(v1, 0.8)
        kept = first.copy()
        second = stepper.entries(v2, 0.4)
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)
        for arr in stepper._scratch.values():
            assert not np.shares_memory(first, arr) and not np.shares_memory(second, arr)

    @pytest.mark.parametrize("d,boundary", [(1, "clamp"), (1, "periodic"),
                                            (2, "clamp"), (2, "periodic")])
    def test_levels_share_no_memory(self, d, boundary):
        sigma = [["0.9"]] if d == 1 else SIGMA_X_SIGN
        prob = stencil_problem(d, sigma, boundary=boundary, T=0.3)
        grid = SpaceGrid.for_problem(prob, 17 if d == 1 else 11)
        for mode in ("relaxed", "pure_lower"):
            levels = [fld.values for fld in solve(prob, grid, SchemeParams(hamiltonian_mode=mode))]
            assert len(levels) > 2
            for i, a in enumerate(levels):
                for b in levels[i + 1:]:
                    assert not np.shares_memory(a, b)
        # the arrays Stepper.step returns are new and never its scratch
        stepper = Stepper(prob, grid)
        values = terminal_field(prob, grid).values
        dt = 0.5 * cfl_limit(prob, grid)
        stepped = [values]
        for j in range(4):
            values = stepper.step(values, prob.T - j * dt, dt, "relaxed")
            stepped.append(values)
        scratch = list(stepper._scratch.values())
        assert scratch
        for i, a in enumerate(stepped):
            assert not any(np.shares_memory(a, s) for s in scratch)
            for b in stepped[i + 1:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("case,mode", [("drift_cost3", "relaxed"), ("heat", "relaxed"),
                                           ("drift_cost3", "pure_lower"),
                                           ("drift_cost3", "pure_upper")])
    def test_game_values_only_read_the_entries(self, heat, drift_cost3, case, mode):
        # the sweep values its games on a generator that it then steps on
        prob = {"heat": heat, "drift_cost3": drift_cost3}[case]
        grid = SpaceGrid.for_problem(prob, 21)
        level = np.random.default_rng(8).uniform(-1.0, 1.0, grid.shape)
        ent = Stepper(prob, grid).entries(level, 0.5)
        frozen = ent.copy()
        frozen.flags.writeable = False
        got = [Stepper(prob, grid).game_values(e, mode, 0.5, collect_strategies=True)
               for e in (ent, frozen)]
        assert [a.tobytes() for a in got[0]] == [a.tobytes() for a in got[1]]
        assert frozen.tobytes() == ent.tobytes()

    def test_kept_levels_are_read_only(self):
        prob = stencil_problem(1, [["0.9"]], T=0.3)
        grid = SpaceGrid.for_problem(prob, 17)
        levels = solve(prob, grid, SchemeParams(hamiltonian_mode="pure_lower"))
        sweep = dpp_sweep(prob, grid, Partition.uniform(0.3, 3), SchemeParams(), "lower")
        for fld in (*levels, *sweep.levels):
            assert not fld.values.flags.writeable
            with pytest.raises(ValueError):
                fld.values[0] = 0.0


class TestCoefficientReuse:
    @pytest.mark.parametrize("case", sorted(TIME_CASES))
    def test_entries_equal_a_fresh_stepper_at_every_level(self, monkeypatch, case):
        prob = stencil_problem(**TIME_CASES[case])
        grid = SpaceGrid.for_problem(prob, 17 if prob.d == 1 else 13)
        entries = (*prob.b, *(e for row in prob.sigma for e in row), prob.f)
        per_level = sum("t" in dsl.free_variables(e) for e in entries)
        if prob.f_needs_yz:
            per_level += "t" not in dsl.free_variables(prob.f)
        calls = []
        evaluate = dsl.evaluate
        monkeypatch.setattr(dsl, "evaluate", lambda e, bnd: calls.append(e) or evaluate(e, bnd))
        kept = Stepper(prob, grid)
        rng = np.random.default_rng(7)
        for level, t in enumerate((0.9, 0.7, 0.7, 0.4, 0.1, 0.0)):
            vals = rng.uniform(-1.0, 1.0, grid.shape)
            calls.clear()
            ent = kept.entries(vals, t)
            if level:
                assert len(calls) == per_level
            ref = Stepper(prob, grid).entries(vals, t)
            assert ent.view(np.int64).tobytes() == ref.view(np.int64).tobytes()


BENCH_PROBLEMS = Path(__file__).resolve().parent.parent / "bench" / "problems"
SCHEDULE_CASES = sorted(TIME_CASES) + ["bilinear_drift_2d"]


def schedule_case(case, boundary):
    """A TIME_CASES problem, or the bench's bilinear_drift_2d, under ``boundary``, and a grid."""
    if case == "bilinear_drift_2d":
        cfg = json.loads((BENCH_PROBLEMS / "bilinear_drift_2d.json").read_text(encoding="utf-8"))
        cfg["domain"]["boundary"] = boundary
        prob = load_problem(cfg)
    else:
        prob = stencil_problem(**{**TIME_CASES[case], "boundary": boundary})
    return prob, SpaceGrid.for_problem(prob, 17 if prob.d == 1 else 13)


def level_bytes(arrays):
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


class TestSchedule:
    @pytest.mark.parametrize("boundary", ["clamp", "periodic"])
    @pytest.mark.parametrize("case", SCHEDULE_CASES)
    def test_scheduled_entries_equal_a_fresh_stepper(self, monkeypatch, case, boundary):
        prob, grid = schedule_case(case, boundary)
        evaluated = (*prob.b, *(e for row in prob.sigma for e in row),
                     *(() if prob.f_needs_yz else (prob.f,)))
        n_timed = sum("t" in dsl.free_variables(e) for e in evaluated)
        per_call = int(prob.f_needs_yz)  # f with the level's y and z, at every call
        calls = []
        evaluate = dsl.evaluate
        monkeypatch.setattr(dsl, "evaluate", lambda e, bnd: calls.append(e) or evaluate(e, bnd))
        times = [0.9, 0.7, 0.55, 0.4, 0.1, 0.05]
        rng = np.random.default_rng(8)
        for size in (1, 4, len(times)):  # times per schedule block
            kept = Stepper(prob, grid)
            monkeypatch.setattr(pde, "_BLOCK_ELEMENTS", size * kept._row_elements)
            kept.schedule(times)
            blocks = set()
            # the first time twice, as the partition sweep asks for it
            for t in [times[0], *times]:
                vals = rng.uniform(-1.0, 1.0, grid.shape)
                calls.clear()
                ent = kept.entries(vals, t)
                block = times.index(t) // size
                want = per_call
                if block not in blocks:  # once per block, every entry in the first
                    want += n_timed if blocks else len(evaluated)
                    blocks.add(block)
                assert len(calls) == want, (size, t)
                ref = Stepper(prob, grid).entries(vals, t)
                assert ent.view(np.int64).tobytes() == ref.view(np.int64).tobytes()
            # a time that was not scheduled is evaluated at each call
            for _ in range(2):
                calls.clear()
                kept.entries(vals, 0.33)
                assert len(calls) == n_timed + per_call

    @pytest.mark.parametrize("boundary", ["clamp", "periodic"])
    @pytest.mark.parametrize("case", SCHEDULE_CASES)
    def test_solvers_independent_of_block_size(self, monkeypatch, case, boundary):
        prob, grid = schedule_case(case, boundary)
        pi = Partition.uniform(prob.T, 3)
        params = SchemeParams(hamiltonian_mode="pure_upper")

        sizes = []
        evaluate = Stepper._evaluate_block
        monkeypatch.setattr(Stepper, "_evaluate_block",
                            lambda self, block: sizes.append(len(block)) or evaluate(self, block))

        def run():
            sizes.clear()
            levels = [fld.values for mode in ("relaxed", "pure_upper")
                      for fld in solve(prob, grid, SchemeParams(hamiltonian_mode=mode))]
            sweep = dpp_sweep(prob, grid, pi, SchemeParams(), "lower", record_strategies=True)
            levels += [*(fld.values for fld in sweep.levels), sweep.mu, sweep.nu]
            if not prob.f_needs_yz:  # exploit covers the classical case only
                res = exploit(prob, pi, "player1", StrategyProfile.uniform(prob, pi.n),
                              [0.2] * prob.d, 64, RandomizationDevice(4), nx=grid.counts[0])
                levels.append(np.array([res.best_response_value, res.profile_value]))
            return level_bytes(levels)

        monkeypatch.setattr(pde, "_BLOCK_ELEMENTS", 1)  # one time per block
        one = run()
        solvers = 3 + (not prob.f_needs_yz)
        timed = bool(Stepper(prob, grid)._timed)
        assert set(sizes) == {1}
        assert len(sizes) > 10 if timed else len(sizes) == solvers
        monkeypatch.setattr(pde, "_BLOCK_ELEMENTS", 2**62)  # the whole schedule
        assert run() == one
        # every solver schedules its times: one block per Stepper, of the
        # whole schedule; with no entry naming t, of the first time only
        assert len(sizes) == solvers and (min(sizes) > 1 if timed else set(sizes) == {1})
        # and solve equals unscheduled steps, each evaluated on its own
        levels = solve(prob, grid, params)
        stepper = Stepper(prob, grid)
        dt = prob.T / (len(levels) - 1)
        values = levels[0].values
        for fld, nxt in zip(levels, levels[1:]):
            values = stepper.step(values, fld.t, dt, params.hamiltonian_mode)
            assert values.tobytes() == nxt.values.tobytes()

    def test_block_respects_the_element_budget(self, monkeypatch):
        # t and x named together: a block holds as many times as fit the budget
        prob = stencil_problem(2, SIGMA_T_ROW, f="u1*v1*cos(t) + 0.1*x1")
        grid = SpaceGrid.for_problem(prob, 13)
        stepper = Stepper(prob, grid)
        row = stepper._row_elements
        assert row == 2 * 2 * len(stepper._pattern) * 11 * 11
        monkeypatch.setattr(pde, "_BLOCK_ELEMENTS", 3 * row + row // 2)
        times = [0.9 - 0.1 * i for i in range(8)]
        stepper.schedule(times)
        sizes = []
        evaluate = stepper._evaluate_block
        monkeypatch.setattr(stepper, "_evaluate_block",
                            lambda block: sizes.append(len(block)) or evaluate(block))
        for t in times:
            stepper.entries(np.zeros(grid.shape), t)
            assert stepper._block.features.size <= pde._BLOCK_ELEMENTS
            assert np.size(stepper._block.f) <= pde._BLOCK_ELEMENTS
        assert sizes == [3, 3, 2]


def monotone_cases():
    """Every catalog problem, the two benchmark problems, and every stencil and time case."""
    bench = Path(__file__).resolve().parent.parent / "bench" / "problems"
    cases = {name: (lambda name=name: load_problem(name), 41) for name in CATALOG}
    cases["drift_cost3"] = (games3.drift_cost3, 41)
    bilinear = str(bench / "bilinear_drift_2d.json")
    cases["bilinear_drift_2d"] = (lambda: load_problem(bilinear), 21)
    for name, kw in {**STENCIL_CASES, **TIME_CASES}.items():
        cases[name] = (lambda kw=kw: stencil_problem(**kw), 17 if kw["d"] == 1 else 13)
    return cases


MONOTONE_CASES = monotone_cases()


class TestMonotoneWeights:
    @pytest.mark.parametrize("case", sorted(MONOTONE_CASES))
    def test_weights_are_transition_probabilities(self, case):
        # At the dt solve uses, dt w_j off the centre and 1 + dt w_centre are
        # the Kushner-Dupuis transition probabilities: every off-centre
        # weight is >= 0 and the centre one meets the CFL condition, for
        # every control pair, work node and level.
        make, nx = MONOTONE_CASES[case]
        prob = make()
        grid = SpaceGrid.for_problem(prob, nx)
        levels = solve(prob, grid, SchemeParams(hamiltonian_mode="pure_lower"))
        dt = prob.T / (len(levels) - 1)
        stepper = Stepper(prob, grid)
        centre = len(stepper._offsets) // 2
        assert stepper._offsets[centre] == (0,) * prob.d
        for fld in levels[:-1]:
            co = stepper._coefficients(fld.t)
            if co.weights is not None:  # what entries applies
                w = co.weights[:, None, :]
            else:  # the features times the pattern, with node axes
                flat = co.features.reshape(stepper.m * stepper.k, len(stepper._pattern), -1)
                w = np.moveaxis(flat, 1, 2) @ stepper._pattern
            off_centre = np.delete(w, centre, axis=-1)
            assert off_centre.min() >= 0.0, (fld.t, off_centre.min())
            assert (1.0 + dt * w[..., centre]).min() >= 0.0, (fld.t, dt)
