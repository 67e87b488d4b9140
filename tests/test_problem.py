import copy
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from mixedvalue import dsl
from mixedvalue.problem import (
    CATALOG,
    Bounds,
    ConditionViolationError,
    ControlGrid,
    Domain,
    ProblemError,
    interior_margin,
    interior_window,
    load_problem,
    stack_entries,
    time_modulus_bound,
    value_bound,
)

from games3 import MALFORMED_PROBLEMS, TOO_DEEP_PHI, uv_drift_with

BENCH_PROBLEMS = Path(__file__).resolve().parent.parent / "bench" / "problems"


def cfg_variant(base_name, **overrides):
    cfg = copy.deepcopy(CATALOG[base_name])
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg and isinstance(cfg[key], dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


class TestCatalog:
    def test_names(self):
        assert sorted(CATALOG) == ["heat_cosine", "uv_drift", "uv_running_cost", "uv_square"]

    @pytest.mark.parametrize("name", ["uv_running_cost", "heat_cosine", "uv_drift", "uv_square"])
    def test_every_catalog_problem_loads(self, name):
        prob = load_problem(name)
        assert prob.name == name
        assert prob.T == 1.0
        assert prob.d == 1

    def test_uv_running_cost_shape(self):
        prob = load_problem("uv_running_cost")
        assert prob.u_grid.points.tolist() == [[-1.0], [1.0]]
        assert prob.v_grid.points.tolist() == [[-1.0], [1.0]]
        assert prob.f == dsl.BinOp("*", dsl.Var("u1"), dsl.Var("v1"))
        assert prob.phi == dsl.Num(0.0)

    def test_entries_share_no_mutable_parts(self):
        # a dict or list used twice would stay aliased in a deep copy, so
        # editing a copied entry's U would also edit its V
        seen = {}

        def walk(obj, path):
            if isinstance(obj, (dict, list)):
                assert id(obj) not in seen, f"{path} is {seen[id(obj)]}"
                seen[id(obj)] = path
                for key, val in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
                    walk(val, f"{path}[{key!r}]")

        walk(CATALOG, "CATALOG")
        for name in CATALOG:
            cfg = copy.deepcopy(CATALOG[name])
            assert cfg["U"] is not cfg["V"]
            assert cfg["U"]["points"] is not cfg["V"]["points"]

    @pytest.mark.parametrize("name", ["uv_running_cost", "uv_drift"])
    def test_variant_of_u_leaves_v(self, name):
        points = [[-1.0], [0.0], [1.0]]
        prob = load_problem(cfg_variant(name, U={"points": points}))
        assert prob.u_grid.points.tolist() == points
        assert prob.v_grid.points.tolist() == CATALOG[name]["V"]["points"] == [[-1.0], [1.0]]

    def test_heat_cosine_is_control_free(self):
        prob = load_problem("heat_cosine")
        assert prob.u_grid.n == 1 and prob.v_grid.n == 1

    def test_uv_drift_shape(self):
        prob = load_problem("uv_drift")
        assert prob.b == (dsl.BinOp("*", dsl.Var("u1"), dsl.Var("v1")),)
        assert prob.phi == dsl.Var("x1")


class TestLoading:
    def test_from_json_text(self):
        prob = load_problem(json.dumps(CATALOG["heat_cosine"]))
        assert prob.name == "heat_cosine"

    def test_from_file(self, tmp_path):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(CATALOG["uv_drift"]))
        assert load_problem(str(path)).name == "uv_drift"

    def test_horizon_alias(self):
        cfg = cfg_variant("heat_cosine")
        cfg["horizon"] = cfg.pop("T")
        assert load_problem(cfg).T == 1.0

    @pytest.mark.parametrize("key", ["T", "horizon"])
    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_horizon_not_finite_and_positive(self, key, horizon):
        cfg = cfg_variant("heat_cosine")
        del cfg["T"]
        cfg[key] = horizon
        with pytest.raises(ProblemError, match="horizon must be finite and positive"):
            load_problem(cfg)

    @pytest.mark.parametrize("key", ["min", "max"])
    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
    def test_rejects_domain_bound_not_finite(self, key, bound):
        # sampling the domain for validation cannot draw from an infinite box
        cfg = cfg_variant("heat_cosine")
        cfg["domain"][key] = [bound]
        with pytest.raises(ProblemError, match="domain bounds must be finite"):
            load_problem(cfg)

    @pytest.mark.parametrize("d", [1.5, 1.0, True, "1", None, 0, [1]])
    def test_rejects_dimension_not_the_integer_1_or_2(self, d):
        with pytest.raises(ProblemError, match=re.escape(
                f"state dimension d must be the integer 1 or 2, got {d!r}")):
            load_problem(cfg_variant("heat_cosine", d=d))

    @pytest.mark.parametrize("case", sorted(MALFORMED_PROBLEMS))
    def test_rejects_wrong_json_shape(self, case, tmp_path):
        cfg, message = MALFORMED_PROBLEMS[case]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        for source in (json.dumps(cfg), str(path)):
            with pytest.raises(ProblemError, match=re.escape(message)):
                load_problem(source)

    @pytest.mark.parametrize("case", sorted(TOO_DEEP_PHI))
    def test_rejects_expression_nested_too_deep(self, case):
        with pytest.raises(ProblemError, match="cannot parse phi: "):
            load_problem(uv_drift_with(phi=TOO_DEEP_PHI[case]))

    def test_missing_key(self):
        cfg = cfg_variant("heat_cosine")
        del cfg["phi"]
        with pytest.raises(ProblemError, match="phi"):
            load_problem(cfg)

    def test_dsl_parse_error_surfaces(self):
        with pytest.raises(ProblemError, match="b\\[0\\]"):
            load_problem(cfg_variant("heat_cosine", b=["1 +"]))

    def test_unknown_source(self):
        with pytest.raises(ProblemError):
            load_problem("no_such_problem_anywhere")

    def test_phi_may_only_reference_state(self):
        with pytest.raises(ProblemError):
            load_problem(cfg_variant("heat_cosine", phi="cos(x1)+u1"))

    def test_bad_dimension(self):
        with pytest.raises(ProblemError):
            load_problem(cfg_variant("heat_cosine", d=3))


class TestCondition41:
    def test_sigma_uncontrolled_violation_names_coefficient(self):
        cfg = cfg_variant("uv_running_cost", sigma=[["1+0*u1"]])
        with pytest.raises(ConditionViolationError, match="sigma\\[0\\]\\[0\\]"):
            load_problem(cfg)

    def test_f_linear_in_z_accepts_linear(self):
        cfg = cfg_variant(
            "uv_running_cost",
            condition41_mode="f_linear_in_z",
            f="u1*v1 + 2*z1",
            bounds={"lip_y_f": 0.0},
        )
        prob = load_problem(cfg)
        assert prob.condition41_mode == "f_linear_in_z"

    def test_f_linear_in_z_rejects_quadratic(self):
        cfg = cfg_variant("uv_running_cost", condition41_mode="f_linear_in_z",
                          f="u1*v1 + z1*z1")
        with pytest.raises(ConditionViolationError, match="linear in z"):
            load_problem(cfg)

    def test_f_linear_in_z_rejects_control_dependent_slope(self):
        cfg = cfg_variant("uv_running_cost", condition41_mode="f_linear_in_z",
                          f="u1*v1 + u1*z1")
        with pytest.raises(ConditionViolationError, match="z coefficient"):
            load_problem(cfg)

    def test_f_linear_in_z_probe_names_a_failing_coefficient(self):
        # the probe evaluates f, b and sigma at its own points: a failure
        # there is the same ProblemError as on the load-time samples
        for over in ({"f": "sqrt(x1) + z1"}, {"f": "u1*v1 + z1", "b": ["sqrt(x1)"]}):
            cfg = cfg_variant("uv_running_cost", condition41_mode="f_linear_in_z", **over)
            with pytest.raises(ProblemError, match="fails to evaluate on the domain"):
                load_problem(cfg)


class TestValidationChecks:
    def test_bounds_cross_check_warns(self):
        cfg = cfg_variant("uv_drift", bounds={"sup_b": 0.1})
        with pytest.warns(UserWarning, match="sup_b"):
            load_problem(cfg)

    def test_bounds_missing_key(self):
        cfg = cfg_variant("heat_cosine")
        del cfg["bounds"]["sup_sigma"]
        with pytest.raises(ProblemError, match="sup_sigma"):
            load_problem(cfg)

    def test_d2_diagonal_dominance_rejected(self):
        cfg = {
            "name": "bad2d",
            "d": 2,
            "T": 1.0,
            "b": ["0", "0"],
            # sigma sigma^T = [[1, 1], [1, 1]]: off-diagonal equals diagonal
            # but rotated so dominance fails: use [[1, 0.99], [0, 0.1]] rows
            "sigma": [["1", "0.99"], ["0", "0.1"]],
            "f": "0",
            "phi": "0",
            "U": {"points": [[0.0]]},
            "V": {"points": [[0.0]]},
            "domain": {"min": [-1.0, -1.0], "max": [1.0, 1.0]},
            "condition41_mode": "sigma_uncontrolled",
            "bounds": {
                "sup_b": 0.0, "sup_sigma": 1.5, "lip_y_f": 0.0, "sup_f": 0.0,
                "sup_phi": 0.0, "value_lip": 0.0,
            },
        }
        with pytest.raises(ProblemError, match="dominant"):
            load_problem(cfg)

    def test_d2_diagonal_problem_loads(self):
        cfg = {
            "name": "heat2d",
            "d": 2,
            "T": 0.5,
            "b": ["0", "0"],
            "sigma": [["1", "0"], ["0", "1"]],
            "f": "0",
            "phi": "cos(x1)*cos(x2)",
            "U": {"points": [[0.0]]},
            "V": {"points": [[0.0]]},
            "domain": {"min": [-4.0, -4.0], "max": [4.0, 4.0]},
            "condition41_mode": "sigma_uncontrolled",
            "bounds": {
                "sup_b": 0.0, "sup_sigma": 1.0, "lip_y_f": 0.0, "sup_f": 0.0,
                "sup_phi": 1.0, "value_lip": 1.5,
            },
        }
        prob = load_problem(cfg)
        assert prob.d == 2


def point_coefficients(prob, t, x, iu, iv) -> tuple:
    """(b, sigma) as (d,) and (d, d) arrays at one (t, x, u, v) point."""
    b, sig, _ = prob.coefficients(t, np.atleast_1d(np.asarray(x, dtype=float)), iu, iv)
    return np.array(b, dtype=float), np.array(sig, dtype=float)


class TestFreeze:
    # coefficients with the state and both controls frozen at one point
    def test_uv_running_cost_constant_coefficients(self):
        prob = load_problem("uv_running_cost")
        b, sig = point_coefficients(prob, 0.3, [0.7], 0, 1)
        assert b.tolist() == [0.0]
        assert sig.tolist() == [[1.0]]

    def test_uv_drift_sign(self):
        prob = load_problem("uv_drift")
        # u=+1 (index 1), v=-1 (index 0): b = -1
        b, _ = point_coefficients(prob, 0.0, [0.0], 1, 0)
        assert b.tolist() == [-1.0]

    def test_matches_direct_evaluation(self):
        prob = load_problem("uv_drift")
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = rng.uniform(0, 1)
            x = rng.uniform(-7, 7, 1)
            iu, iv = rng.integers(0, 2, 2)
            b, sig = point_coefficients(prob, t, x, iu, iv)
            bnd = {"t": t, "x1": x[0], "u1": prob.u_grid.points[iu, 0],
                   "v1": prob.v_grid.points[iv, 0]}
            assert b[0] == dsl.evaluate(prob.b[0], bnd)
            assert sig[0, 0] == dsl.evaluate(prob.sigma[0][0], bnd)

    def test_sigma_uncontrolled_freeze_is_control_independent(self):
        prob = load_problem("uv_running_cost")
        _, base = point_coefficients(prob, 0.5, [1.0], 0, 0)
        for iu in range(2):
            for iv in range(2):
                _, sig = point_coefficients(prob, 0.5, [1.0], iu, iv)
                assert np.array_equal(sig, base)


# d=2 with skew, state- and control-dependent sigma and a y/z-dependent f
SKEW_2D = {
    "name": "skew_controlled_2d",
    "d": 2,
    "T": 1.0,
    "b": ["u1*v1 - 0.1*x1", "0.5*(u1-v1)*cos(t)"],
    "sigma": [["1 + 0.1*u1*cos(x2)", "0.2"], ["0.1*v1", "0.8 + 0.05*sin(t)"]],
    "f": "u1*v1 + 0.3*z1 - 0.1*z2 - 0.2*y + 0.05*x2",
    "phi": "cos(x1)*cos(x2)",
    "U": {"points": [[-1.0], [0.0], [1.0]]},
    "V": {"points": [[-1.0], [1.0]]},
    "domain": {"min": [-2.0, -2.0], "max": [2.0, 2.0]},
    "condition41_mode": "f_linear_in_z",
    "bounds": {
        "sup_b": 1.2, "sup_sigma": 1.1, "lip_y_f": 0.2, "sup_f": 1.1,
        "sup_phi": 1.0, "value_lip": 1.5,
    },
}


def point_bindings(prob, t, x, iu, iv, y, z):
    bnd = {"t": t, "y": y}
    for i in range(prob.d):
        bnd[f"x{i + 1}"] = x[i]
        bnd[f"z{i + 1}"] = z[i]
    for i in range(prob.u_grid.q):
        bnd[f"u{i + 1}"] = prob.u_grid.points[iu, i]
    for i in range(prob.v_grid.q):
        bnd[f"v{i + 1}"] = prob.v_grid.points[iv, i]
    return bnd


class TestEvaluator:
    @pytest.mark.parametrize("source", sorted(CATALOG) + [SKEW_2D],
                             ids=sorted(CATALOG) + ["skew_controlled_2d"])
    def test_broadcast_matches_per_point(self, source):
        prob = load_problem(source)
        m, k, d, n = prob.u_grid.n, prob.v_grid.n, prob.d, 6
        rng = np.random.default_rng(2)
        # points on axis 0, u on axis 1, v on axis 2
        t = rng.uniform(0, prob.T, (n, 1, 1))
        x = rng.uniform(prob.domain.x_min, prob.domain.x_max, (n, 1, 1, d))
        y = rng.normal(size=(n, 1, 1))
        z = rng.normal(size=(n, 1, 1, d))
        iu = np.arange(m)[:, None]
        iv = np.arange(k)
        shape = (n, m, k)
        b, sig, f = prob.coefficients(t, x, iu, iv, y, z)
        b, sig = stack_entries(b, shape), stack_entries(sig, shape)
        f = np.broadcast_to(f, shape)
        phi = np.broadcast_to(prob.terminal_cost(x), (n, 1, 1))
        for i in range(n):
            ti, xi, yi, zi = t[i, 0, 0], x[i, 0, 0], y[i, 0, 0], z[i, 0, 0]
            bnd_x = {f"x{j + 1}": xi[j] for j in range(d)}
            assert phi[i, 0, 0] == dsl.evaluate(prob.phi, bnd_x)
            for a in range(m):
                for c in range(k):
                    bnd = point_bindings(prob, ti, xi, a, c, yi, zi)
                    assert b[i, a, c].tolist() == [dsl.evaluate(e, bnd) for e in prob.b]
                    assert sig[i, a, c].tolist() == [[dsl.evaluate(e, bnd) for e in row]
                                                     for row in prob.sigma]
                    assert f[i, a, c] == dsl.evaluate(prob.f, bnd)

    def test_entries_keep_their_own_shape(self):
        prob = load_problem("uv_drift")
        x = np.zeros((5, 1, 1, 1))
        b, sig, f = prob.coefficients(0.3, x, np.arange(2)[:, None], np.arange(2))
        assert np.shape(b[0]) == (2, 2)  # u1*v1: no state axis
        assert np.ndim(sig[0][0]) == 0  # a constant stays a scalar
        assert np.ndim(f) == 0

    def test_previous_entries_are_kept_and_changed_ones_evaluated(self):
        # the (y, z) call of a stencil step: b and sigma come back as passed,
        # f is evaluated at the new y and z
        prob = load_problem(SKEW_2D)
        x = np.array([[0.3, -0.4], [1.1, 0.2]])
        iu, iv = np.arange(3)[:, None, None], np.arange(2)[:, None]
        b, sig, f = prob.coefficients(0.7, x, iu, iv, with_f=False)
        assert f is None
        y, z = np.array([0.5, -1.0]), np.array([[0.2, 0.1], [-0.3, 0.4]])
        yz = frozenset(("y", *prob.z_names()))
        b2, sig2, f2 = prob.coefficients(0.7, x, iu, iv, y, z, (b, sig, None), yz)
        assert b2 is b and sig2 is sig
        assert np.array_equal(f2, prob.coefficients(0.7, x, iu, iv, y, z)[2])
        # an entry free of the changed variables is the previous object
        coef = prob.coefficients(0.7, x, iu, iv)
        assert prob.coefficients(0.2, x, iu, iv, previous=coef, changed={"x1"})[0][1] is coef[0][1]
        # nothing names t or x: a simulation's next substep evaluates nothing
        drift = load_problem("uv_drift")
        coef = drift.coefficients(0.0, x[:, :1], 0, 1)
        assert drift.coefficients(0.5, x[:, :1] + 1.0, 0, 1, previous=coef,
                                  changed={"t", "x1"}) is coef

    def test_previous_without_f_evaluates_f(self):
        # a Hamiltonian table's f call: f names neither y nor z, yet f is
        # missing from previous, so it is evaluated and only it
        prob = load_problem("uv_drift")
        iu, iv = np.arange(2)[:, None], np.arange(2)
        coef = prob.coefficients(0.0, [0.5], iu, iv, with_f=False)
        yz = frozenset(("y", *prob.z_names()))
        b, sig, f = prob.coefficients(0.0, [0.5], iu, iv, 0.3, 0.7, coef, yz)
        assert b is coef[0] and sig is coef[1]
        assert f == 0.0
        assert prob.coefficients(0.0, [0.5], iu, iv, 0.3, 0.7, coef, yz, with_f=False) is coef

    def test_f_needs_yz(self):
        assert not load_problem("uv_drift").f_needs_yz
        assert load_problem(SKEW_2D).f_needs_yz
        assert load_problem(cfg_variant("uv_running_cost", f="u1*v1 + 0*y")).f_needs_yz


class TestDerivedQuantities:
    def test_interior_margin(self):
        prob = load_problem("uv_drift")
        assert interior_margin(prob) == pytest.approx(1.0 + 4.0)

    def test_interior_window(self):
        prob = load_problem("uv_drift")
        lo, hi = interior_window(prob)
        assert lo.tolist() == [-2.0]
        assert hi.tolist() == [2.0]

    def test_window_nonempty_required(self):
        cfg = cfg_variant("uv_drift", domain={"min": [-3.0], "max": [3.0]})
        prob = load_problem(cfg)
        with pytest.raises(ProblemError, match="window"):
            interior_window(prob)

    def test_value_bound(self):
        assert value_bound(load_problem("uv_running_cost")) == pytest.approx(1.0)
        assert value_bound(load_problem("heat_cosine")) == pytest.approx(1.0)

    def test_time_modulus_bound(self):
        assert time_modulus_bound(load_problem("heat_cosine")) == pytest.approx(4.0)


class TestBounds:
    # cfl_limit and value_bound read the bounds as sups and Lipschitz constants:
    # a negative sup_b once made cfl_limit inf and let solve take one
    # non-monotone step of dt = T, and a nan one failed later as a bad dt
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("key", sorted(CATALOG["uv_drift"]["bounds"]))
    def test_rejects_negative_or_non_finite(self, key, value):
        with pytest.raises(ProblemError, match=f"bound {key} must be finite and non-negative"):
            load_problem(cfg_variant("uv_drift", bounds={key: value}))
        with pytest.raises(ProblemError, match=f"bound {key} "):
            Bounds(**dict(CATALOG["uv_drift"]["bounds"], **{key: value}))

    def test_mapping_without_lip_phi_loads(self):
        # lip_phi bounded nothing: it is no longer a bound
        cfg = cfg_variant("uv_drift")
        cfg["bounds"].pop("lip_phi", None)
        assert load_problem(cfg).bounds == Bounds.from_mapping(cfg["bounds"])
        assert not hasattr(Bounds.from_mapping(cfg["bounds"]), "lip_phi")

    def test_files_that_carry_lip_phi_still_load(self):
        # the benchmark's problem files keep the key; it is ignored
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_problem(cfg_variant("uv_drift", bounds={"lip_phi": 1.0}))
            for path in sorted(BENCH_PROBLEMS.glob("*.json")):
                assert "lip_phi" in json.loads(path.read_text(encoding="utf-8"))["bounds"]
                load_problem(str(path))


class TestTypes:
    def test_control_grid_duplicates(self):
        with pytest.raises(ProblemError):
            ControlGrid(np.array([[1.0], [1.0]]), "U")

    def test_control_grid_label(self):
        with pytest.raises(ProblemError):
            ControlGrid(np.array([[1.0]]), "W")

    def test_domain_ordering(self):
        with pytest.raises(ProblemError):
            Domain(np.array([1.0]), np.array([-1.0]))

    def test_domain_boundary_mode(self):
        with pytest.raises(ProblemError):
            Domain(np.array([-1.0]), np.array([1.0]), "reflect")
