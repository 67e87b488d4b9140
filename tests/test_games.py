import numpy as np
import pytest
from scipy.optimize import linprog

from mixedvalue import games
from mixedvalue.games import (
    GameError,
    MixedStrategy,
    PayoffMatrix,
    best_response_value,
    pure_minimax,
    solve_game,
    solve_games,
)


def lp_oracle_value(ent):
    """Independent LP formulation: max v s.t. M^T mu >= v, sum(mu)=1.

    Deliberately different from the in-repo shifted-game simplex: no
    shift, free value variable, solved by scipy's HiGHS.
    """
    m, k = ent.shape
    c = np.zeros(m + 1)
    c[0] = -1.0  # maximize v
    a_ub = np.hstack([np.ones((k, 1)), -ent.T])
    b_ub = np.zeros(k)
    a_eq = np.zeros((1, m + 1))
    a_eq[0, 1:] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(None, None)] + [(0, None)] * m, method="highs")
    assert res.status == 0
    return -res.fun


MATCHING_PENNIES = PayoffMatrix([[1.0, -1.0], [-1.0, 1.0]])


class TestSolveGame:
    def test_random_games_match_lp_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            ent = rng.uniform(-1, 1, rng.integers(2, 30, 2))
            sol = solve_game(PayoffMatrix(ent))
            assert abs(sol.value - lp_oracle_value(ent)) <= 1e-8
            assert sol.duality_gap <= 1e-9

    def test_matching_pennies(self):
        sol = solve_game(MATCHING_PENNIES)
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.mu_star.weights, [0.5, 0.5], atol=1e-12)
        assert np.allclose(sol.nu_star.weights, [0.5, 0.5], atol=1e-12)
        assert sol.duality_gap <= 1e-9

    def test_one_by_one(self):
        sol = solve_game(PayoffMatrix([[3.7]]))
        assert sol.value == 3.7
        assert sol.mu_star.weights.tolist() == [1.0]
        assert sol.duality_gap == 0.0

    def test_derived_two_by_two(self):
        # independent hand derivation (equalizing mixtures): value 3/2,
        # mu = (1/4, 3/4), nu = (1/2, 1/2); confirmed by the scipy oracle
        m = PayoffMatrix([[3.0, 0.0], [1.0, 2.0]])
        assert lp_oracle_value(m.entries) == pytest.approx(1.5, abs=1e-9)
        sol = solve_game(m)
        assert sol.value == pytest.approx(1.5, abs=1e-9)
        # optimality of the stated strategies, not equality of vectors
        stated_mu = MixedStrategy(np.array([0.25, 0.75]))
        stated_nu = MixedStrategy(np.array([0.5, 0.5]))
        assert best_response_value(m, stated_nu, "row") <= sol.value + 1e-9
        assert best_response_value(m, stated_mu, "col") >= sol.value - 1e-9
        assert best_response_value(m, sol.nu_star, "row") <= sol.value + 1e-9
        assert best_response_value(m, sol.mu_star, "col") >= sol.value - 1e-9

    def test_value_between_pure_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            shape = rng.integers(1, 9, 2)
            m = PayoffMatrix(rng.uniform(-1, 1, shape))
            lower, upper = pure_minimax(m)
            sol = solve_game(m)
            assert lower - 1e-8 <= sol.value <= upper + 1e-8
            assert sol.duality_gap >= -1e-9

    def test_rejects_nonfinite(self):
        with pytest.raises(GameError):
            PayoffMatrix([[np.nan, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(GameError):
            PayoffMatrix(np.zeros((0, 2)))

    def test_rejects_bad_tol(self):
        with pytest.raises(GameError):
            solve_game(MATCHING_PENNIES, tol=0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        ent = rng.uniform(-1, 1, (13, 7))
        a = solve_game(PayoffMatrix(ent))
        b = solve_game(PayoffMatrix(ent))
        assert a.value == b.value
        assert np.array_equal(a.mu_star.weights, b.mu_star.weights)


class TestPureMinimax:
    def test_matching_pennies(self):
        assert pure_minimax(MATCHING_PENNIES) == (-1.0, 1.0)

    def test_singleton(self):
        assert pure_minimax(PayoffMatrix([[2.5]])) == (2.5, 2.5)

    def test_pure_saddle(self):
        # enumeration: row mins (2, 0) -> lower 2; col maxes (2, 3) -> upper 2
        assert pure_minimax(PayoffMatrix([[2.0, 3.0], [0.0, 1.0]])) == (2.0, 2.0)

    def test_lower_le_upper_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = PayoffMatrix(rng.uniform(-1, 1, rng.integers(1, 12, 2)))
            lower, upper = pure_minimax(m)
            assert lower <= upper


class TestBestResponse:
    def test_row_response_to_uniform(self):
        nu = MixedStrategy(np.array([0.5, 0.5]))
        assert best_response_value(MATCHING_PENNIES, nu, "row") == 0.0

    def test_col_response_to_point_mass(self):
        mu = MixedStrategy(np.array([1.0, 0.0]))
        assert best_response_value(MATCHING_PENNIES, mu, "col") == -1.0

    def test_singleton(self):
        one = MixedStrategy(np.array([1.0]))
        assert best_response_value(PayoffMatrix([[4.2]]), one, "row") == 4.2
        assert best_response_value(PayoffMatrix([[4.2]]), one, "col") == 4.2

    def test_length_mismatch(self):
        with pytest.raises(GameError):
            best_response_value(MATCHING_PENNIES, MixedStrategy(np.ones(3) / 3), "row")

    def test_bad_side(self):
        with pytest.raises(GameError):
            best_response_value(MATCHING_PENNIES, MixedStrategy(np.array([1.0, 0.0])), "up")


class TestMixedStrategy:
    def test_rejects_negative(self):
        with pytest.raises(GameError):
            MixedStrategy(np.array([1.2, -0.2]))

    def test_rejects_unnormalized(self):
        with pytest.raises(GameError):
            MixedStrategy(np.array([0.5, 0.4]))


class TestProperties:
    """Random-matrix invariants against the independent scipy LP oracle."""

    def test_oracle_agreement(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            shape = rng.integers(1, 51, 2)
            ent = rng.uniform(-1, 1, shape)
            sol = solve_game(PayoffMatrix(ent))
            lower, upper = pure_minimax(PayoffMatrix(ent))
            assert lower - 1e-9 <= sol.value <= upper + 1e-9
            assert sol.duality_gap <= 1e-9
            assert abs(sol.value - lp_oracle_value(ent)) <= 1e-8  # 10*tol

    def test_scale_shift_equivariance(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            ent = rng.uniform(-1, 1, rng.integers(1, 20, 2))
            a, b = rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0)
            base = solve_game(PayoffMatrix(ent))
            scaled = solve_game(PayoffMatrix(a * ent + b))
            assert scaled.value == pytest.approx(a * base.value + b, abs=1e-8)
            # returned strategies are optimal for both games (not equal)
            m1, m2 = PayoffMatrix(ent), PayoffMatrix(a * ent + b)
            for m, sol, v in ((m1, scaled, base.value), (m2, base, scaled.value)):
                assert best_response_value(m, sol.nu_star, "row") <= v + 1e-7
                assert best_response_value(m, sol.mu_star, "col") >= v - 1e-7

    def test_transpose_antisymmetry(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            ent = rng.uniform(-1, 1, rng.integers(1, 20, 2))
            v1 = solve_game(PayoffMatrix(ent)).value
            v2 = solve_game(PayoffMatrix(-ent.T)).value
            assert v2 == pytest.approx(-v1, abs=1e-8)

    def test_oriented_solves_agree(self):
        # the batched solver reads M and -M^T (the same game with the
        # players' roles swapped) through one routine; values negate and
        # the strategies stay certified
        rng = np.random.default_rng(31)
        for _ in range(30):
            m, k = rng.integers(1, 7, 2)
            ent = rng.uniform(-1, 1, (m, k, 8))
            a = solve_games(ent, 1e-9)
            b = solve_games(-ent.transpose(1, 0, 2), 1e-9)
            assert np.max(np.abs(a.value + b.value)) <= 2e-9
            assert np.max(a.gap) <= 1e-9 and np.max(b.gap) <= 1e-9


def assert_certified(ent, batch, tol):
    """Gap <= tol recomputed from the returned strategies, which are
    probability vectors, and the value inside the best-response bracket
    (up to rounding: the gap itself may round below zero)."""
    for w, size in ((batch.mu, ent.shape[0]), (batch.nu, ent.shape[1])):
        assert w.shape == (ent.shape[2], size)
        assert np.all(w >= 0.0)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
    row_br = np.einsum("ijn,nj->ni", ent, batch.nu).max(axis=1)
    col_br = np.einsum("ijn,ni->nj", ent, batch.mu).min(axis=1)
    assert np.all(row_br - col_br <= tol)
    assert np.all(batch.gap <= tol)
    assert np.all((col_br - 1e-12 <= batch.value) & (batch.value <= row_br + 1e-12))


class TestSolveGames:
    """The batched kernel solver against the HiGHS oracle and the simplex."""

    def test_random_batches_match_oracle(self):
        rng = np.random.default_rng(37)
        for m in range(1, 7):
            for k in range(1, 7):
                ent = rng.uniform(-1, 1, (m, k, 6))
                batch = solve_games(ent, 1e-9)
                assert_certified(ent, batch, 1e-9)
                for j in range(ent.shape[2]):
                    assert abs(batch.value[j] - lp_oracle_value(ent[:, :, j])) <= 1e-8

    @pytest.mark.parametrize("ent", [
        [[1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]],  # duplicate columns
        [[1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]],  # duplicate rows
        [[0.3, 0.3, 0.3], [0.3, 0.3, 0.3]],  # constant: every pair is a saddle
        [[2.0, 3.0, 4.0], [0.0, 1.0, 5.0]],  # pure saddle at (0, 0)
        [[3.0, 0.0, 5.0], [1.0, 2.0, 6.0], [0.0, -1.0, 4.0]],  # dominated row and column
        [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],  # a third row that ties the value
    ], ids=["dup_cols", "dup_rows", "constant", "saddle", "dominated", "tied_row"])
    def test_degenerate_cases(self, ent):
        ent = np.asarray(ent)
        batch = solve_games(ent[:, :, None], 1e-9)
        assert_certified(ent[:, :, None], batch, 1e-9)
        assert abs(batch.value[0] - lp_oracle_value(ent)) <= 1e-12

    def test_pure_saddle_takes_point_masses(self):
        batch = solve_games(np.array([[2.0, 3.0], [0.0, 1.0]])[:, :, None], 1e-9)
        assert batch.value[0] == 2.0 and batch.gap[0] == 0.0
        assert batch.mu[0].tolist() == [1.0, 0.0] and batch.nu[0].tolist() == [1.0, 0.0]

    def test_full_support_seven_takes_fallback(self):
        # the diagonal game I_7 has the unique saddle (uniform, uniform) with
        # value 1/7, so no kernel of size <= 3 certifies it
        ent = np.eye(7)[:, :, None]
        batch = solve_games(ent, 1e-9)
        assert batch.kernel[0] == -1
        assert abs(batch.value[0] - 1.0 / 7.0) <= 1e-12
        assert_certified(ent, batch, 1e-9)

    def test_warm_and_cold_agree(self):
        rng = np.random.default_rng(43)
        for m, k in ((2, 2), (3, 3), (2, 5), (4, 3), (6, 6)):
            base = rng.uniform(-1, 1, (m, k, 200))
            moved = base + 0.05 * rng.uniform(-1, 1, base.shape)
            hint = solve_games(base, 1e-9).kernel
            cold = solve_games(moved, 1e-9)
            warm = solve_games(moved, 1e-9, hint)
            assert_certified(moved, warm, 1e-9)
            assert np.max(np.abs(warm.value - cold.value)) <= 2e-9

    def test_fallback_failure_names_the_game(self, monkeypatch):
        def refuse(ent, tol):
            raise GameError("refused")

        monkeypatch.setattr(games, "_solve_entries", refuse)
        easy = np.zeros((7, 7, 1))  # a constant game: certified by a 1x1 kernel
        ent = np.concatenate([easy, easy, np.eye(7)[:, :, None]], axis=-1)
        with pytest.raises(GameError, match="refused") as err:
            solve_games(ent, 1e-9)
        assert err.value.node == 2

    @pytest.mark.parametrize("ent", [np.zeros((2, 2)), np.zeros((0, 2, 3))])
    def test_rejects_bad_batches(self, ent):
        with pytest.raises(GameError):
            solve_games(ent, 1e-9)

    def test_rejects_bad_tol(self):
        with pytest.raises(GameError):
            solve_games(np.zeros((2, 2, 1)), 0.0)
