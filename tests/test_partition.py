import copy
import math

import numpy as np
import pytest

from mixedvalue import montecarlo as mc, partition, pde
from mixedvalue.partition import Partition, convergence_study, dpp_sweep
from mixedvalue.pde import SchemeParams, SpaceGrid, cfl_limit, solve
from mixedvalue.problem import CATALOG, load_problem


def variant(base, **over):
    cfg = copy.deepcopy(CATALOG[base])
    for k, v in over.items():
        if isinstance(v, dict) and isinstance(cfg.get(k), dict):
            cfg[k].update(v)
        else:
            cfg[k] = v
    return load_problem(cfg)


def count_stepper_calls(monkeypatch) -> dict:
    """Calls of Stepper.entries and Stepper.step_frozen from here on, counted."""
    calls = {"entries": 0, "step_frozen": 0}
    for name in calls:
        inner = getattr(pde.Stepper, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(pde.Stepper, name, counted)
    return calls


@pytest.fixture(scope="module")
def uv_cost():
    return load_problem("uv_running_cost")


@pytest.fixture(scope="module")
def heat():
    return load_problem("heat_cosine")


@pytest.fixture(scope="module")
def uv_ydep():
    return variant("uv_running_cost", name="uv_ydep", f="u1*v1 - y",
                   bounds={"lip_y_f": 1.0, "sup_f": 1.0})


class TestPartition:
    def test_uniform(self):
        pi = Partition.uniform(1.0, 4)
        assert pi.n == 4
        assert pi.mesh == pytest.approx(0.25)
        assert pi.times[0] == 0.0 and pi.times[-1] == 1.0

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            Partition(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            Partition(np.array([0.1, 1.0]))

    @pytest.mark.parametrize("times", [[0.0, 0.5, np.nan], [0.0, np.inf], [0.0, np.nan, 1.0],
                                       [np.nan, 1.0], [0.0, 0.5, -np.inf]])
    def test_rejects_non_finite(self, times):
        with pytest.raises(ValueError):
            Partition(np.array(times))

    def test_custom_times(self):
        pi = Partition(np.array([0.0, 0.1, 0.5, 1.0]))
        assert pi.mesh == pytest.approx(0.5)


def substep_params(prob, grid, delta, substeps) -> SchemeParams:
    """Params whose CFL rule divides a subinterval of length ``delta`` into ``substeps``."""
    return SchemeParams(cfl_safety=delta / (substeps * cfl_limit(prob, grid)))


class TestLocalOdeStep:
    # a constant terminal cost and no drift keep every level flat, so p = A = 0
    # and each node integrates dW/ds = -F0(s, x, W, 0) on its own

    def test_constant_rhs_is_exact_for_any_substeps(self, uv_cost):
        # pure-lower game value is -1 regardless of y: W(t) = -(T - t)
        grid = SpaceGrid.for_problem(uv_cost, 5)
        pi = Partition.uniform(1.0, 4)
        for substeps in (1, 3, 10):
            res = dpp_sweep(uv_cost, grid, pi, substep_params(uv_cost, grid, 0.25, substeps),
                            "lower", pure=True)
            assert res.substep_counts == (substeps,) * 4
            assert res.levels[1].values == pytest.approx(-0.25, abs=1e-15)
            for fld in res.levels:
                assert fld.values == pytest.approx(fld.t - 1.0, abs=1e-14)

    def test_relaxed_value_zero(self, uv_cost):
        grid = SpaceGrid.for_problem(uv_cost, 5)
        res = dpp_sweep(uv_cost, grid, Partition.uniform(1.0, 4),
                        substep_params(uv_cost, grid, 0.25, 1), "lower")
        assert res.substep_counts == (1,) * 4
        for fld in res.levels:
            assert fld.values == pytest.approx(0.0, abs=1e-12)

    def test_zero_solution_preserved_under_y_feedback(self):
        # f(y) = -y with no game part: dW/ds = W with W(T) = 0 stays 0
        prob = variant("uv_running_cost", name="pure_y", f="0-y",
                       bounds={"lip_y_f": 1.0, "sup_f": 0.0})
        grid = SpaceGrid.for_problem(prob, 5)
        res = dpp_sweep(prob, grid, Partition.uniform(1.0, 2), substep_params(prob, grid, 0.5, 8),
                        "lower")
        assert res.substep_counts == (8,) * 2
        for fld in res.levels:
            assert np.all(fld.values == 0.0)

    def test_substep_halving_first_order(self):
        # f = u v - y from W = 0.3 at T over one subinterval of length 0.5:
        # Euler refinement changes the result by O(delta^2 / substeps)
        prob = variant("uv_running_cost", name="uv_ydep_flat", f="u1*v1 - y", phi="0.3",
                       bounds={"lip_y_f": 1.0, "sup_f": 1.0, "sup_phi": 0.3})
        grid = SpaceGrid.for_problem(prob, 5)
        pi = Partition.uniform(1.0, 2)
        delta = 0.5
        results = {}
        for substeps in (1, 2, 4, 8, 16):
            res = dpp_sweep(prob, grid, pi, substep_params(prob, grid, delta, substeps), "lower")
            assert res.substep_counts == (substeps,) * 2
            level = res.levels[1]
            assert level.t == 0.5 and np.ptp(level.values) == 0.0
            results[substeps] = level.values[0]
        c = 2.0  # generous constant for f with Lip_y = 1 and |f| <= 2
        for substeps in (1, 2, 4, 8):
            change = abs(results[2 * substeps] - results[substeps])
            assert change <= c * delta**2 / substeps


class TestDppSweep:
    def test_uv_running_cost_values_coincide_near_zero(self, uv_cost):
        grid = SpaceGrid.for_problem(uv_cost, 101)
        pi = Partition.uniform(1.0, 4)
        res_w = dpp_sweep(uv_cost, grid, pi, SchemeParams(), "lower")
        res_u = dpp_sweep(uv_cost, grid, pi, SchemeParams(), "upper")
        assert np.max(np.abs(res_w.field_at_0.values)) <= 1e-9
        assert np.max(np.abs(res_u.field_at_0.values)) <= 1e-9
        gap = max(np.max(np.abs(a.values - b.values))
                  for a, b in zip(res_w.levels, res_u.levels))
        assert gap <= 1e-9

    def test_control_free_sweep_equals_pde_solve_bitwise(self, heat):
        # the sweep's own substep rule puts its substeps on the solve's steps
        grid = SpaceGrid.for_problem(heat, 101)
        limit = 0.9 * cfl_limit(heat, grid)
        for n in (1, 3, 8, 16):
            n_fine = n * max(1, math.ceil(1.0 / (n * limit) - 1e-12))
            levels = solve(heat, grid, SchemeParams(dt=1.0 / n_fine))
            res = dpp_sweep(heat, grid, Partition.uniform(1.0, n), SchemeParams(), "lower")
            assert res.substep_counts == (n_fine // n,) * n
            assert np.array_equal(res.field_at_0.values, levels[-1].values)

    def test_pure_sweeps_reach_isaacs_envelopes(self, uv_cost):
        grid = SpaceGrid.for_problem(uv_cost, 101)
        pi = Partition.uniform(1.0, 4)
        low = dpp_sweep(uv_cost, grid, pi, SchemeParams(), "lower", pure=True)
        up = dpp_sweep(uv_cost, grid, pi, SchemeParams(), "upper", pure=True)
        assert np.allclose(low.field_at_0.values, -1.0, atol=1e-12)
        assert np.allclose(up.field_at_0.values, 1.0, atol=1e-12)

    def test_boundedness(self, uv_ydep):
        # discrete Gronwall bound: |W| <= sup|phi| + T sup|f0| e^{Lip_y T}
        grid = SpaceGrid.for_problem(uv_ydep, 51)
        pi = Partition.uniform(1.0, 8)
        res = dpp_sweep(uv_ydep, grid, pi, SchemeParams(), "lower")
        bound = 0.0 + 1.0 * 1.0 * math.exp(1.0)
        for fld in res.levels:
            assert np.max(np.abs(fld.values)) <= bound * 1.1

    @pytest.mark.parametrize("params,field", [
        (SchemeParams(hamiltonian_mode="pure_lower"), "hamiltonian_mode.*pure="),
        (SchemeParams(hamiltonian_mode="pure_upper"), "hamiltonian_mode.*orientation"),
        (SchemeParams(dt=1e-4), "params.dt.*substeps"),
    ])
    def test_rejects_params_it_would_ignore(self, uv_cost, params, field):
        # the sweep's local games come from pure= and orientation, its step
        # from cfl_safety: a mode or dt in params must not pass silently
        grid = SpaceGrid.for_problem(uv_cost, 11)
        with pytest.raises(ValueError, match=field):
            dpp_sweep(uv_cost, grid, Partition.uniform(1.0, 2), params, "lower")

    def test_horizon_mismatch(self, heat):
        grid = SpaceGrid.for_problem(heat, 51)
        with pytest.raises(ValueError, match="horizon"):
            dpp_sweep(heat, grid, Partition.uniform(0.5, 2), SchemeParams(), "lower")

    def test_recorded_strategies_are_saddles(self, uv_cost):
        grid = SpaceGrid.for_problem(uv_cost, 51)
        pi = Partition.uniform(1.0, 4)
        res = dpp_sweep(uv_cost, grid, pi, SchemeParams(), "lower",
                        record_strategies=True)
        assert res.mu.shape == (4, 49, 2)
        assert np.allclose(res.mu, 0.5, atol=1e-9)
        assert np.allclose(res.nu, 0.5, atol=1e-9)

    @pytest.mark.parametrize("orientation", ["lower", "upper"])
    @pytest.mark.parametrize("pure", [False, True])
    def test_one_generator_per_substep(self, monkeypatch, uv_cost, orientation, pure):
        # each subinterval's games and its first substep share one generator,
        # and every substep still steps through Stepper.step_frozen
        calls = count_stepper_calls(monkeypatch)
        grid = SpaceGrid.for_problem(uv_cost, 31)
        res = dpp_sweep(uv_cost, grid, Partition.uniform(1.0, 4), SchemeParams(), orientation,
                        pure=pure)
        assert sum(res.substep_counts) > res.partition.n
        assert calls == {"entries": sum(res.substep_counts),
                         "step_frozen": sum(res.substep_counts)}

    @pytest.mark.parametrize("fixed_side", ["player1", "player2"])
    def test_exploit_one_generator_per_substep(self, monkeypatch, uv_cost, fixed_side):
        # exploit marches twice over the sweep's substeps, once with the free
        # player best-responding and once holding the whole profile
        pi = Partition.uniform(1.0, 4)
        counts = dpp_sweep(uv_cost, SpaceGrid.for_problem(uv_cost, 31), pi,
                           SchemeParams()).substep_counts
        calls = count_stepper_calls(monkeypatch)
        mc.exploit(uv_cost, pi, fixed_side, mc.StrategyProfile.uniform(uv_cost, 4), [0.0], 100,
                   mc.RandomizationDevice(0), nx=31)
        assert sum(counts) > pi.n
        assert calls == {"entries": 2 * sum(counts), "step_frozen": 2 * sum(counts)}

    def test_y_dependent_sweep_runs(self, uv_ydep):
        grid = SpaceGrid.for_problem(uv_ydep, 51)
        pi = Partition.uniform(1.0, 4)
        res = dpp_sweep(uv_ydep, grid, pi, SchemeParams(), "lower")
        # f = u v - y with saddle value 0 - y feeds back linearly; the flat
        # field solves dW/dt = -W backward from 0, staying identically 0
        assert np.max(np.abs(res.field_at_0.values)) <= 1e-9


class TestConvergenceStudy:
    def test_uv_running_cost_gaps_vanish(self, uv_cost):
        grid = SpaceGrid.for_problem(uv_cost, 41)
        rows = convergence_study(uv_cost, grid, [2, 4, 8, 16], SchemeParams())
        gaps = [r["sup_w_minus_v"] for r in rows]
        assert all(g <= 1e-12 for g in gaps)
        assert all(g[1] <= g[0] + 1e-12 for g in zip(gaps, gaps[1:]) for g in [g])
        assert all(r["sup_w_minus_u"] <= 1e-9 for r in rows)

    def test_heat_gap_tracks_partition(self, heat):
        # with one substep per subinterval the sweep's time step is the
        # partition mesh; the gap against the fine solve decays with it
        grid = SpaceGrid.for_problem(heat, 17)
        params = SchemeParams(cfl_safety=1.0)
        rows = convergence_study(heat, grid, [2, 4, 8, 16], params)
        gaps = [r["sup_w_minus_v"] for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= gaps[0] / 4
        assert all(r["substeps"] == 1 for r in rows)

    def test_refinement_slope(self):
        prob = load_problem("uv_drift")
        grid = SpaceGrid.for_problem(prob, 11)
        rows = convergence_study(prob, grid, [4, 8, 16, 32, 64],
                                 SchemeParams(cfl_safety=1.0))
        mesh = np.array([r["mesh"] for r in rows])
        full = np.array([r["sup_w_minus_v_full"] for r in rows])
        slope = np.polyfit(np.log(mesh), np.log(full), 1)[0]
        assert slope >= 0.45

    def test_one_sweep_per_mesh(self, monkeypatch, uv_cost):
        # the relaxed lower and upper sweeps are bitwise equal, so one serves both
        calls = []
        sweep = partition.dpp_sweep
        monkeypatch.setattr(partition, "dpp_sweep",
                            lambda *args, **kw: calls.append(args[3:]) or sweep(*args, **kw))
        grid = SpaceGrid.for_problem(uv_cost, 21)
        rows = convergence_study(uv_cost, grid, [1, 2, 4], SchemeParams())
        assert len(calls) == 3
        for r in rows:
            assert r["sup_u_minus_v"] == r["sup_w_minus_v"]
            assert r["sup_w_minus_u"] == 0.0

    def test_time_modulus_and_lipschitz_columns(self, heat):
        grid = SpaceGrid.for_problem(heat, 17)
        rows = convergence_study(heat, grid, [4, 8], SchemeParams(cfl_safety=1.0))
        for r in rows:
            assert r["time_modulus"] <= r["time_modulus_bound"]
            assert r["space_lipschitz"] <= 1.0 + 0.1
