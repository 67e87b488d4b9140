from pathlib import Path

import numpy as np
import pytest

from mixedvalue import dsl
from mixedvalue.games import pure_envelope, solve_games
from mixedvalue.hamiltonian import payoff_matrix
from mixedvalue.problem import load_problem

import games3
from games3 import YZ_1D

BENCH_PROBLEMS = Path(__file__).resolve().parent.parent / "bench" / "problems"

# d = 2 with a controlled, state-dependent sigma and an f that names y and z
YZ_2D = {
    "name": "yz_2d", "d": 2, "T": 1.0,
    "b": ["u1*v1 - 0.1*x1 + 0.2*sin(x1)", "0.5*(u1-v1)*cos(t) + 0.1*x2"],
    "sigma": [["1 + 0.1*u1*cos(x2)", "0.3*sin(x1)"], ["0.1*v1", "0.8"]],
    "f": "u1*v1 + 0.3*z1 - 0.1*z2 - 0.2*y", "phi": "cos(x1)*cos(x2)",
    "U": {"points": [[-1.0], [0.0], [1.0]]}, "V": {"points": [[-1.0], [1.0]]},
    "domain": {"min": [-3.0, -3.0], "max": [3.0, 3.0]},
    "condition41_mode": "f_linear_in_z",
    "bounds": {"sup_b": 2.0, "sup_sigma": 1.5, "lip_y_f": 0.2, "sup_f": 2.0,
               "sup_phi": 1.0, "value_lip": 1.0},
}

SOURCES = {"drift_cost3": str(BENCH_PROBLEMS / "drift_cost3.json"),
           "bilinear_drift_2d": str(BENCH_PROBLEMS / "bilinear_drift_2d.json"),
           "yz_1d": YZ_1D, "yz_2d": YZ_2D}


def point(prob, t=0.0, x=0.0, y=0.0, p=0.0, a=0.0):
    """The (m, k) payoff matrix of one d = 1 point: a stack of one."""
    return payoff_matrix(prob, t, [x], y, [[p]], [[[a]]])[:, :, 0]


def random_stack(rng, d, n):
    """n gradients and symmetric Hessian arguments, some of them exactly 0 or -0."""
    p = rng.normal(size=(n, d))
    p[::7], p[3::11] = 0.0, -0.0
    A = rng.normal(size=(n, d, d))
    A = 0.5 * (A + np.swapaxes(A, 1, 2))
    A[::5] = 0.0
    return p, A


def hamiltonians(mat):
    """(h_minus, h_plus, h_relaxed, gap) of one payoff matrix, solved as a batch of one."""
    ent = mat[:, :, None]
    sol = solve_games(ent)
    return (pure_envelope(ent, upper=False)[0], pure_envelope(ent, upper=True)[0],
            sol.value[0], sol.gap[0])


@pytest.fixture(scope="module")
def uv_cost():
    return load_problem("uv_running_cost")


@pytest.fixture(scope="module")
def heat():
    return load_problem("heat_cosine")


@pytest.fixture(scope="module")
def uv_drift():
    return load_problem("uv_drift")


class TestPointValue:
    def test_reduces_to_running_cost(self, uv_cost):
        # u=+1 (index 1), v=-1 (index 0): value is f = u*v = -1
        assert point(uv_cost)[1, 0] == -1.0

    def test_trace_term(self, heat):
        assert point(heat, a=2.0)[0, 0] == 1.0

    def test_drift_term(self, uv_drift):
        # u=v=-1: b = +1, value = b p = 3
        assert point(uv_drift, p=3.0)[0, 0] == 3.0

    def test_all_terms_combine(self, uv_drift):
        # 0.5*1*a + (u v) p + 0
        got = point(uv_drift, p=2.0, a=4.0)[1, 0]
        assert got == pytest.approx(0.5 * 4.0 + (-1.0) * 2.0)


class TestPayoffMatrix:
    def test_uv_running_cost(self, uv_cost):
        m = point(uv_cost)
        assert m.tolist() == [[1.0, -1.0], [-1.0, 1.0]]

    def test_control_free_is_one_by_one(self, heat):
        m = point(heat, a=2.0)
        assert m.shape == (1, 1)
        assert m[0, 0] == 1.0

    def test_uv_drift_gradient_entries(self, uv_drift):
        m = point(uv_drift, p=1.0)
        assert m.tolist() == [[1.0, -1.0], [-1.0, 1.0]]

    def test_bilinear_extension(self, uv_cost, uv_drift):
        # mu^T M nu matches averaging, over the product measure, the
        # generator evaluated pair by pair from the b, sigma and f expressions
        t, x, y, p, a = 0.3, 0.4, 0.2, 1.5, 0.8
        for prob in (uv_cost, uv_drift, games3.drift_cost3(), load_problem(YZ_1D)):
            m = point(prob, t, x, y, p, a)
            rng = np.random.default_rng(5)
            mu = rng.dirichlet(np.ones(prob.u_grid.n))
            nu = rng.dirichlet(np.ones(prob.v_grid.n))
            direct = 0.0
            for iu in range(prob.u_grid.n):
                for iv in range(prob.v_grid.n):
                    env = {"t": t, "x1": x, "y": y,
                           "u1": prob.u_grid.points[iu, 0], "v1": prob.v_grid.points[iv, 0]}
                    b = dsl.evaluate(prob.b[0], env)
                    sigma = dsl.evaluate(prob.sigma[0][0], env)
                    env["z1"] = p * sigma
                    f = dsl.evaluate(prob.f, env)
                    direct += mu[iu] * nu[iv] * (0.5 * sigma * sigma * a + b * p + f)
            assert mu @ m @ nu == pytest.approx(direct, rel=1e-13, abs=1e-14)


class TestRelaxedAndBounds:
    def test_uv_running_cost_envelopes(self, uv_cost):
        h_minus, h_plus, value, _ = hamiltonians(point(uv_cost))
        assert (h_minus, h_plus) == (-1.0, 1.0)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_control_free_coincide(self, heat):
        h_minus, h_plus, value, _ = hamiltonians(point(heat, a=1.4))
        assert h_minus == h_plus == value

    def test_uv_drift_bounds_scale_with_gradient(self, uv_drift):
        for p in np.linspace(-2.0, 2.0, 9):
            h_minus, h_plus, value, _ = hamiltonians(point(uv_drift, p=p))
            assert h_minus == pytest.approx(-abs(p), abs=1e-12)
            assert h_plus == pytest.approx(abs(p), abs=1e-12)
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_relaxed_between_bounds_random(self, uv_cost, uv_drift):
        rng = np.random.default_rng(77)
        for prob in (uv_cost, uv_drift):
            for _ in range(200):
                p, a = rng.normal(), rng.normal()
                m = point(prob, rng.uniform(0, 1), rng.uniform(-5, 5), rng.normal(), p, a)
                h_minus, h_plus, value, gap = hamiltonians(m)
                assert h_minus - 1e-8 <= value <= h_plus + 1e-8
                assert gap <= 1e-9

    def test_degenerate_ellipticity_in_a(self, uv_cost):
        # sigma is control-free, so growing A raises the relaxed value
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = rng.normal()
            eps = rng.uniform(0.01, 1.0)
            p = rng.normal()
            v1 = hamiltonians(point(uv_cost, p=p, a=a))[2]
            v2 = hamiltonians(point(uv_cost, p=p, a=a + eps))[2]
            assert v2 >= v1 - 1e-8


class TestStack:
    @pytest.mark.parametrize("source", ["uv_drift", "uv_running_cost", "heat_cosine",
                                        "uv_square", "drift_cost3", "yz_1d",
                                        "bilinear_drift_2d", "yz_2d"])
    def test_equals_one_point_calls(self, source):
        # each point of a stack is computed with the same operations as a
        # stack of one: the two agree bitwise, in d = 2 too
        prob = load_problem(SOURCES.get(source, source))
        rng = np.random.default_rng(29)
        t, y, x = rng.uniform(0, 1), rng.normal(), rng.uniform(-2, 2, prob.d)
        p, A = random_stack(rng, prob.d, 60)
        stack = payoff_matrix(prob, t, x, y, p, A)
        assert stack.shape == (prob.u_grid.n, prob.v_grid.n, 60)
        for j in range(60):
            one = payoff_matrix(prob, t, x, y, p[j:j + 1], A[j:j + 1])
            assert one.tobytes() == stack[:, :, j:j + 1].tobytes()

    @pytest.mark.parametrize("source", ["uv_drift", "yz_1d", "yz_2d"])
    def test_each_coefficient_evaluated_once(self, monkeypatch, source):
        # b and sigma once at (t, x), f once over the stack: d + d^2 + 1
        # evaluations, whether or not f names y or z
        prob = load_problem(SOURCES.get(source, source))
        p, A = random_stack(np.random.default_rng(3), prob.d, 25)
        calls = []
        evaluate = dsl.evaluate
        monkeypatch.setattr(dsl, "evaluate", lambda e, bnd: calls.append(e) or evaluate(e, bnd))
        payoff_matrix(prob, 0.4, np.full(prob.d, 0.3), -0.2, p, A)
        d = prob.d
        assert len(calls) == d + d * d + 1
        assert calls[-1] is prob.f

    def test_empty_stack(self, uv_drift):
        ent = payoff_matrix(uv_drift, 0.0, [0.0], 0.0, np.empty((0, 1)), np.empty((0, 1, 1)))
        assert ent.shape == (2, 2, 0)


class TestInputChecks:
    def test_rejects_asymmetric_a(self):
        prob = load_problem(YZ_2D)
        A = np.zeros((3, 2, 2))
        A[2] = [[0.0, 1.0], [0.5, 0.0]]
        with pytest.raises(ValueError, match="A of point 2 must be symmetric within 1e-12"):
            payoff_matrix(prob, 0.0, [0.0, 0.0], 0.0, np.zeros((3, 2)), A)
        A[2] = [[0.0, 1.0], [1.0 + 1e-13, 0.0]]  # within the tolerance
        payoff_matrix(prob, 0.0, [0.0, 0.0], 0.0, np.zeros((3, 2)), A)

    def test_rejects_nonfinite(self, uv_drift):
        p, A = np.zeros((4, 1)), np.zeros((4, 1, 1))
        for bad in (np.inf, -np.inf, np.nan):
            for args in ((bad, [0.0], 0.0), (0.0, [bad], 0.0), (0.0, [0.0], bad)):
                with pytest.raises(ValueError, match="t, x and y must be finite"):
                    payoff_matrix(uv_drift, *args, p, A)
            p_bad, A_bad = p.copy(), A.copy()
            p_bad[3], A_bad[3] = bad, bad
            for stack in ((p_bad, A), (p, A_bad)):
                with pytest.raises(ValueError, match="point 3 has non-finite p or A"):
                    payoff_matrix(uv_drift, 0.0, [0.0], 0.0, *stack)

    def test_rejects_shape_mismatch(self, uv_drift):
        good = ([0.0], np.zeros((2, 1)), np.zeros((2, 1, 1)))
        for i, bad in ((0, [0.0, 0.0]), (1, np.zeros((2, 2))), (1, np.zeros(2)),
                       (2, np.zeros((3, 1, 1))), (2, np.zeros((2, 1)))):
            x, p, A = (bad if j == i else g for j, g in enumerate(good))
            with pytest.raises(ValueError, match=r"expected x \(1,\), p \(n, 1\) and A"):
                payoff_matrix(uv_drift, 0.0, x, 0.0, p, A)
