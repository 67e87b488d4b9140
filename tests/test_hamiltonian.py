import numpy as np
import pytest

from mixedvalue import dsl
from mixedvalue.games import pure_envelope, solve_games
from mixedvalue.hamiltonian import HamiltonianPoint, payoff_matrix
from mixedvalue.problem import load_problem

import games3


def point(t=0.0, x=0.0, y=0.0, p=0.0, a=0.0):
    return HamiltonianPoint(t=t, x=[x], y=y, p=[p], A=[[a]])


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
        assert payoff_matrix(point(), uv_cost)[1, 0] == -1.0

    def test_trace_term(self, heat):
        assert payoff_matrix(point(a=2.0), heat)[0, 0] == 1.0

    def test_drift_term(self, uv_drift):
        # u=v=-1: b = +1, value = b p = 3
        assert payoff_matrix(point(p=3.0), uv_drift)[0, 0] == 3.0

    def test_all_terms_combine(self, uv_drift):
        # 0.5*1*a + (u v) p + 0
        got = payoff_matrix(point(p=2.0, a=4.0), uv_drift)[1, 0]
        assert got == pytest.approx(0.5 * 4.0 + (-1.0) * 2.0)


class TestPayoffMatrix:
    def test_uv_running_cost(self, uv_cost):
        m = payoff_matrix(point(), uv_cost)
        assert m.tolist() == [[1.0, -1.0], [-1.0, 1.0]]

    def test_control_free_is_one_by_one(self, heat):
        m = payoff_matrix(point(a=2.0), heat)
        assert m.shape == (1, 1)
        assert m[0, 0] == 1.0

    def test_uv_drift_gradient_entries(self, uv_drift):
        m = payoff_matrix(point(p=1.0), uv_drift)
        assert m.tolist() == [[1.0, -1.0], [-1.0, 1.0]]

    def test_bilinear_extension(self, uv_cost, uv_drift):
        # mu^T M nu matches averaging, over the product measure, the
        # generator evaluated pair by pair from the b, sigma and f expressions
        pt = point(t=0.3, x=0.4, y=0.2, p=1.5, a=0.8)
        p, a = pt.p[0], pt.A[0, 0]
        for prob in (uv_cost, uv_drift, games3.drift_cost3()):
            m = payoff_matrix(pt, prob)
            rng = np.random.default_rng(5)
            mu = rng.dirichlet(np.ones(prob.u_grid.n))
            nu = rng.dirichlet(np.ones(prob.v_grid.n))
            direct = 0.0
            for iu in range(prob.u_grid.n):
                for iv in range(prob.v_grid.n):
                    env = {"t": pt.t, "x1": pt.x[0], "y": pt.y,
                           "u1": prob.u_grid.points[iu, 0], "v1": prob.v_grid.points[iv, 0]}
                    b = dsl.evaluate(prob.b[0], env)
                    sigma = dsl.evaluate(prob.sigma[0][0], env)
                    env["z1"] = p * sigma
                    f = dsl.evaluate(prob.f, env)
                    direct += mu[iu] * nu[iv] * (0.5 * sigma * sigma * a + b * p + f)
            assert mu @ m @ nu == pytest.approx(direct, rel=1e-13, abs=1e-14)


class TestRelaxedAndBounds:
    def test_uv_running_cost_envelopes(self, uv_cost):
        h_minus, h_plus, value, _ = hamiltonians(payoff_matrix(point(), uv_cost))
        assert (h_minus, h_plus) == (-1.0, 1.0)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_control_free_coincide(self, heat):
        pt = point(a=1.4)
        h_minus, h_plus, value, _ = hamiltonians(payoff_matrix(pt, heat))
        assert h_minus == h_plus == value

    def test_uv_drift_bounds_scale_with_gradient(self, uv_drift):
        for p in np.linspace(-2.0, 2.0, 9):
            pt = point(p=p)
            h_minus, h_plus, value, _ = hamiltonians(payoff_matrix(pt, uv_drift))
            assert h_minus == pytest.approx(-abs(p), abs=1e-12)
            assert h_plus == pytest.approx(abs(p), abs=1e-12)
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_relaxed_between_bounds_random(self, uv_cost, uv_drift):
        rng = np.random.default_rng(77)
        for prob in (uv_cost, uv_drift):
            for _ in range(200):
                b = rng.normal(size=1)
                a = rng.normal()
                pt = HamiltonianPoint(
                    t=rng.uniform(0, 1), x=rng.uniform(-5, 5, 1),
                    y=rng.normal(), p=b, A=[[a]],
                )
                h_minus, h_plus, value, gap = hamiltonians(payoff_matrix(pt, prob))
                assert h_minus - 1e-8 <= value <= h_plus + 1e-8
                assert gap <= 1e-9

    def test_degenerate_ellipticity_in_a(self, uv_cost):
        # sigma is control-free, so growing A raises the relaxed value
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = rng.normal()
            eps = rng.uniform(0.01, 1.0)
            p = rng.normal()
            v1 = hamiltonians(payoff_matrix(point(p=p, a=a), uv_cost))[2]
            v2 = hamiltonians(payoff_matrix(point(p=p, a=a + eps), uv_cost))[2]
            assert v2 >= v1 - 1e-8


class TestHamiltonianPoint:
    def test_rejects_asymmetric_a(self):
        with pytest.raises(ValueError, match="symmetric"):
            HamiltonianPoint(t=0.0, x=[0.0, 0.0], y=0.0, p=[0.0, 0.0],
                             A=[[0.0, 1.0], [0.5, 0.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            HamiltonianPoint(t=0.0, x=[np.inf], y=0.0, p=[0.0], A=[[0.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            HamiltonianPoint(t=0.0, x=[0.0], y=0.0, p=[0.0, 1.0], A=[[0.0]])
