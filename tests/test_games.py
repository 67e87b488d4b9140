import tracemalloc
import warnings
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from mixedvalue import games
from mixedvalue.games import GameBatch, GameError, pure_envelope, solve_games


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


def solve_one(ent, tol=1e-9):
    """(value, mu, nu, gap) of the one game ``ent``, (m, k), solved as a batch of one."""
    batch = solve_games(np.asarray(ent, dtype=float)[:, :, None], tol)
    return batch.value[0], batch.mu[0], batch.nu[0], batch.gap[0]


def envelopes(ent):
    """(lower, upper) pure envelopes of the one game ``ent``, (m, k)."""
    ent = np.asarray(ent, dtype=float)[:, :, None]
    return pure_envelope(ent, upper=False)[0], pure_envelope(ent, upper=True)[0]


MATCHING_PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


class TestSolveGame:
    def test_random_games_match_lp_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            ent = rng.uniform(-1, 1, rng.integers(2, 30, 2))
            value, _, _, gap = solve_one(ent)
            assert abs(value - lp_oracle_value(ent)) <= 1e-8
            assert gap <= 1e-9

    def test_matching_pennies(self):
        value, mu, nu, gap = solve_one(MATCHING_PENNIES)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(mu, [0.5, 0.5], atol=1e-12)
        assert np.allclose(nu, [0.5, 0.5], atol=1e-12)
        assert gap <= 1e-9

    def test_one_by_one(self):
        value, mu, _, gap = solve_one([[3.7]])
        assert value == 3.7
        assert mu.tolist() == [1.0]
        assert gap == 0.0

    def test_derived_two_by_two(self):
        # independent hand derivation (equalizing mixtures): value 3/2,
        # mu = (1/4, 3/4), nu = (1/2, 1/2); confirmed by the scipy oracle
        m = np.array([[3.0, 0.0], [1.0, 2.0]])
        assert lp_oracle_value(m) == pytest.approx(1.5, abs=1e-9)
        value, mu, nu, _ = solve_one(m)
        assert value == pytest.approx(1.5, abs=1e-9)
        # optimality of the stated strategies, not equality of vectors: the
        # row player's best response to nu, the column player's to mu
        stated_mu, stated_nu = np.array([0.25, 0.75]), np.array([0.5, 0.5])
        assert (m @ stated_nu).max() <= value + 1e-9
        assert (stated_mu @ m).min() >= value - 1e-9
        assert (m @ nu).max() <= value + 1e-9
        assert (mu @ m).min() >= value - 1e-9

    def test_value_between_pure_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            shape = rng.integers(1, 9, 2)
            m = rng.uniform(-1, 1, shape)
            lower, upper = envelopes(m)
            value, _, _, gap = solve_one(m)
            assert lower - 1e-8 <= value <= upper + 1e-8
            assert gap >= -1e-9

    def test_rejects_nonfinite(self):
        with pytest.raises(GameError):
            solve_one([[np.nan, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(GameError):
            solve_one(np.zeros((0, 2)))

    def test_rejects_bad_tol(self):
        for tol in (0.0, np.nan, np.inf):
            with pytest.raises(GameError, match="tol must be finite and positive"):
                solve_one(MATCHING_PENNIES, tol=tol)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        ent = rng.uniform(-1, 1, (13, 7))
        a = solve_one(ent)
        b = solve_one(ent)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])


class TestPureMinimax:
    def test_matching_pennies(self):
        assert envelopes(MATCHING_PENNIES) == (-1.0, 1.0)

    def test_singleton(self):
        assert envelopes([[2.5]]) == (2.5, 2.5)

    def test_pure_saddle(self):
        # enumeration: row mins (2, 0) -> lower 2; col maxes (2, 3) -> upper 2
        assert envelopes([[2.0, 3.0], [0.0, 1.0]]) == (2.0, 2.0)

    def test_lower_le_upper_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            lower, upper = envelopes(rng.uniform(-1, 1, rng.integers(1, 12, 2)))
            assert lower <= upper


class TestBestResponse:
    """Pure best responses, computed inline, against the solver and the envelopes."""

    def test_row_response_to_uniform(self):
        # the saddle nu of matching pennies is uniform; every row earns 0
        _, _, nu, _ = solve_one(MATCHING_PENNIES)
        assert nu.tolist() == [0.5, 0.5]
        assert (MATCHING_PENNIES @ nu).max() == 0.0

    def test_col_response_to_point_mass(self):
        # against a point mass on a row the column player takes the row's
        # minimum; the best such row gives the lower envelope
        responses = [(mu @ MATCHING_PENNIES).min() for mu in np.eye(2)]
        assert responses == [-1.0, -1.0]
        assert max(responses) == envelopes(MATCHING_PENNIES)[0]

    def test_singleton(self):
        value, mu, nu, _ = solve_one([[4.2]])
        one = np.array([[4.2]])
        assert (one @ nu).max() == (mu @ one).min() == value == 4.2


class TestMixedStrategy:
    """Every game's solved mu and nu are probability vectors, or solve_games raises."""

    @staticmethod
    def solve_with_simplex_mu(monkeypatch, mu):
        """solve_games on two kernel-certified games and I_7, whose simplex returns ``mu``."""
        def simplex(ent, tol):
            return 1.0 / 7.0, np.array(mu), np.full(7, 1.0 / 7.0), 0.0

        monkeypatch.setattr(games, "_solve_entries", simplex)
        easy = np.zeros((7, 7, 1))
        return solve_games(np.concatenate([easy, easy, np.eye(7)[:, :, None]], axis=-1), 1e-9)

    def assert_rejected(self, monkeypatch, mu):
        with pytest.raises(GameError, match="mu of game 2 is not a probability vector") as err:
            self.solve_with_simplex_mu(monkeypatch, mu + [0.0] * 5)
        assert err.value.node == 2

    def test_rejects_negative(self, monkeypatch):
        for mu in ([1.2, -0.2], [1.0 + 1e-11, -1e-11]):
            self.assert_rejected(monkeypatch, mu)

    def test_rejects_unnormalized(self, monkeypatch):
        for mu in ([0.5, 0.4], [0.5, 0.5 + 2e-12]):
            self.assert_rejected(monkeypatch, mu)

    def test_rejects_non_finite(self, monkeypatch):
        for bad in (np.nan, np.inf):
            self.assert_rejected(monkeypatch, [1.0, bad])

    def test_accepts_rounding_within_tolerance(self, monkeypatch):
        mu = [0.5, 0.5 - 2e-13, 0.0, 0.0, 0.0, 0.0, -2e-13]
        assert self.solve_with_simplex_mu(monkeypatch, mu).mu[2].tolist() == mu


class TestProperties:
    """Random-matrix invariants against the independent scipy LP oracle."""

    def test_oracle_agreement(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            shape = rng.integers(1, 51, 2)
            ent = rng.uniform(-1, 1, shape)
            value, _, _, gap = solve_one(ent)
            lower, upper = envelopes(ent)
            assert lower - 1e-9 <= value <= upper + 1e-9
            assert gap <= 1e-9
            assert abs(value - lp_oracle_value(ent)) <= 1e-8  # 10*tol

    def test_scale_shift_equivariance(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            ent = rng.uniform(-1, 1, rng.integers(1, 20, 2))
            a, b = rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0)
            base = solve_one(ent)
            scaled = solve_one(a * ent + b)
            assert scaled[0] == pytest.approx(a * base[0] + b, abs=1e-8)
            # returned strategies are optimal for both games (not equal)
            for m, (_, mu, nu, _), v in ((ent, scaled, base[0]), (a * ent + b, base, scaled[0])):
                assert (m @ nu).max() <= v + 1e-7
                assert (mu @ m).min() >= v - 1e-7

    def test_transpose_antisymmetry(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            ent = rng.uniform(-1, 1, rng.integers(1, 20, 2))
            v1 = solve_one(ent)[0]
            v2 = solve_one(-ent.T)[0]
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("hinted", [False, True])
    def test_rejects_non_finite_entry(self, bad, hinted):
        # the first game with a non-finite entry is named, with that entry,
        # before any kernel or the simplex sees it (and without a warning)
        ent = np.random.default_rng(3).uniform(-1.0, 1.0, (3, 2, 6))
        ent[2, 1, 4] = bad
        ent[0, 0, 5] = bad
        hint = np.zeros(6, dtype=np.int64) if hinted else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GameError, match=rf"non-finite payoff {bad} at entry \(2, 1\) "
                                                r"of game 4$") as err:
                solve_games(ent, 1e-9, hint)
        assert err.value.node == 4

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

    def test_singleton_games_are_their_entries(self, monkeypatch):
        # the 1 x 1 kernel certifies every 1 x 1 game: its value is the
        # entry itself, signed zeros, subnormals and huge values included
        def refuse(ent, tol):
            raise AssertionError("a 1 x 1 game reached the simplex")

        monkeypatch.setattr(games, "_solve_entries", refuse)
        ent = np.array([[[-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.7]]])
        for hint in (None, np.zeros(ent.shape[-1], dtype=int)):
            batch = solve_games(ent, 1e-9, hint)
            assert batch.value.tobytes() == ent[0, 0].tobytes()
            assert np.all(batch.gap == 0.0)
            assert np.all(batch.mu == 1.0) and np.all(batch.nu == 1.0)

    @pytest.mark.parametrize("ent", [np.zeros((2, 2)), np.zeros((0, 2, 3))])
    def test_rejects_bad_batches(self, ent):
        with pytest.raises(GameError):
            solve_games(ent, 1e-9)

    def test_rejects_bad_tol(self):
        for tol in (0.0, -1e-9, np.nan, np.inf):
            with pytest.raises(GameError, match="tol must be finite and positive"):
                solve_games(np.zeros((2, 2, 1)), tol)


class TestHints:
    """A hint is only a warm start: an invalid one is ignored, node by node."""

    @pytest.fixture
    def batch(self):
        rng = np.random.default_rng(47)
        ent = rng.uniform(-1, 1, (3, 3, 40))
        hint = solve_games(ent + 0.05 * rng.uniform(-1, 1, ent.shape), 1e-9).kernel
        return ent, hint

    @staticmethod
    def assert_same(a, b):
        for name in GameBatch._fields:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    @pytest.mark.parametrize("shape", [(39,), (41,), (40, 1), (1, 40), ()])
    def test_wrong_shape_is_ignored(self, batch, shape):
        ent, hint = batch
        bad = np.resize(hint, shape)
        self.assert_same(solve_games(ent, 1e-9, bad), solve_games(ent, 1e-9))

    @pytest.mark.parametrize("dtype", [float, bool, complex, object])
    def test_wrong_dtype_is_ignored(self, batch, dtype):
        ent, hint = batch
        bad = hint.astype(dtype)
        self.assert_same(solve_games(ent, 1e-9, bad), solve_games(ent, 1e-9))

    @pytest.mark.parametrize("entries", [[19, 20, 10**6, 2**62], [-2, -3, -10**6, -2**62]],
                             ids=["out_of_range", "below_minus_one"])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_entries_naming_no_kernel_are_ignored(self, batch, entries, dtype):
        # 3 x 3 games have 19 kernels, numbered 0-18
        ent, hint = batch
        if dtype is np.int32:
            entries = np.clip(entries, -2**31, 2**31 - 1)
        bad = hint.astype(dtype)
        bad[::10] = entries
        cleaned = hint.copy()
        cleaned[::10] = -1
        self.assert_same(solve_games(ent, 1e-9, bad), solve_games(ent, 1e-9, cleaned))
        cold = solve_games(ent[:, :, ::10], 1e-9)
        self.assert_same(solve_games(ent[:, :, ::10], 1e-9, bad[::10]), cold)

    def test_unsigned_hint_is_used(self, batch):
        ent, hint = batch
        valid = np.where(hint >= 0, hint, 2**40).astype(np.uint64)
        self.assert_same(solve_games(ent, 1e-9, valid),
                         solve_games(ent, 1e-9, np.where(hint >= 0, hint, -1)))

    def test_no_kernel_enumerated(self):
        # 1 x 4097 games have more 1 x 1 supports than are enumerated: the
        # simplex solves every game and any hint names no kernel
        ent = np.random.default_rng(53).uniform(-1, 1, (1, 4097, 2))
        for hint in (None, np.array([0, 5])):
            batch = solve_games(ent, 1e-9, hint)
            assert batch.kernel.tolist() == [-1, -1]
            assert batch.value.tolist() == ent.min(axis=1)[0].tolist()


# ---------------------------------------------------------------------------
# The kernel stage against a game-by-game scalar reference
# ---------------------------------------------------------------------------


def kernels_of(m, k):
    """(rows, cols) of every kernel in the numbering of ``GameBatch.kernel``.

    Square supports of size 1, 2, 3, rows and then columns in lexicographic
    order; a size with more than 4096 support pairs is left out.
    """
    out = []
    for r in range(1, min(m, k, 3) + 1):
        pairs = list(product(combinations(range(m), r), combinations(range(k), r)))
        if len(pairs) <= 4096:
            out += pairs
    return out


def maximum(a, b):
    """np.maximum on two floats: NaN propagates and a tie returns b."""
    return a if a != a or a > b else b


def minimum(a, b):
    """np.minimum on two floats: NaN propagates and a tie returns b."""
    return a if a != a or a < b else b


def fold(terms):
    """terms[0] + terms[1] + ..., left to right."""
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    return acc


def cofactors(sub):
    """Signed cofactors of an r x r list-of-lists matrix, r <= 3."""
    r = len(sub)
    if r == 1:
        return [[1.0]]
    if r == 2:
        (a, b), (c, d) = sub
        return [[d, 0.0 - c], [0.0 - b, a]]
    s = lambda i, j: sub[i % 3][j % 3]  # noqa: E731
    return [[s(i + 1, j + 1) * s(i + 2, j + 2) - s(i + 1, j + 2) * s(i + 2, j + 1)
             for j in range(3)] for i in range(3)]


def reference_game(ent, tol, hint=-1):
    """(value, mu, nu, gap, kernel) of one m x k game, in scalar float arithmetic.

    The hinted kernel is tried first, then every kernel in order, and the
    first certified one wins: v = det / s, weights adj 1 / s and 1^T adj / s
    with every sum taken left to right, pure best responses summed over the
    support, the value clamped into their bracket.  Games no kernel
    certifies go to the simplex.
    """
    m, k = ent.shape
    e = ent.tolist()
    kernels = kernels_of(m, k)
    for c in ([hint] if 0 <= hint < len(kernels) else []) + list(range(len(kernels))):
        rows, cols = kernels[c]
        r = len(rows)
        sub = [[e[i][j] for j in cols] for i in rows]
        cof = cofactors(sub)
        nu = [fold([cof[i][j] for i in range(r)]) for j in range(r)]
        mu = [fold([cof[i][j] for j in range(r)]) for i in range(r)]
        total = fold(nu)
        if total == 0:
            continue
        v = fold([sub[0][j] * cof[0][j] for j in range(r)]) / total
        nu = [x / total for x in nu]
        mu = [x / total for x in mu]
        if not all(x >= -1e-12 for x in nu + mu):
            continue
        nu = [maximum(x, 0.0) for x in nu]
        mu = [maximum(x, 0.0) for x in mu]
        row_br = reduce(maximum, [fold([e[i][cols[s]] * nu[s] for s in range(r)])
                                  for i in range(m)])
        col_br = reduce(minimum, [fold([e[rows[s]][j] * mu[s] for s in range(r)])
                                  for j in range(k)])
        gap = row_br - col_br
        if not gap <= tol:
            continue
        mu_full, nu_full = np.zeros(m), np.zeros(k)
        mu_full[list(rows)] = mu
        nu_full[list(cols)] = nu
        return minimum(maximum(v, col_br), row_br), mu_full, nu_full, gap, c
    value, mu, nu, gap = games._solve_entries(ent, tol)
    return value, mu, nu, gap, -1


def game_bytes(batch, j):
    """The fields of game j of a batch, as bytes."""
    return tuple(np.asarray(getattr(batch, name)[j]).tobytes() for name in GameBatch._fields)


@st.composite
def game_batches(draw):
    """A batch of 1 x 1 to 5 x 5 games, integer-valued (signed zeros included)
    or not, with or without a hint."""
    m, k, n = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    integers = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
    elements = draw(st.sampled_from([integers, st.floats(-1.0, 1.0)]))
    ent = draw(hnp.arrays(np.float64, (m, k, n), elements=elements))
    hint = None
    if draw(st.booleans()):
        hint = draw(hnp.arrays(np.int64, n, elements=st.integers(-1, len(kernels_of(m, k)) - 1)))
    return ent, hint


@given(game_batches())
@settings(max_examples=300, deadline=None)
def test_each_game_solved_as_alone(case):
    # every field of every game is bitwise that of the game solved alone and
    # of the scalar reference, whether each pass evaluates its candidates in
    # one padded group or in one group per kernel size
    ent, hint = case
    n = ent.shape[2]
    one = [None] * n if hint is None else [hint[j:j + 1] for j in range(n)]
    for pad_pairs in (0, 10**9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(games, "_PAD_PAIRS", pad_pairs)
            batch = solve_games(ent, 1e-9, hint)
            alone = [solve_games(ent[:, :, j:j + 1], 1e-9, one[j]) for j in range(n)]
        for j in range(n):
            ref = reference_game(ent[:, :, j], 1e-9, -1 if hint is None else int(hint[j]))
            want = tuple(np.asarray(f, dtype=np.int64 if i == 4 else float).tobytes()
                         for i, f in enumerate(ref))
            assert game_bytes(batch, j) == game_bytes(alone[j], 0) == want, (pad_pairs, j)


def test_padding_changes_no_cofactor():
    # every 2 x 2 kernel over {-1.5, -0.0, 0.0, 2} has, bit for bit and signed
    # zeros included, the cofactors of its real slots padded to 3 x 3 with
    # the identity (the padded slots reading -0.0)
    sub2 = np.array(list(product([-1.5, -0.0, 0.0, 2.0], repeat=4))).T.reshape(2, 2, -1, 1)
    sub3 = np.full((3, 3) + sub2.shape[2:], -0.0)
    sub3[:2, :2] = sub2
    sub3[2, 2] = 1.0
    cof2 = games._cofactors(np.stack(games._cofactor_operands(sub2)))
    cof3 = games._cofactors(np.stack(games._cofactor_operands(sub3)))
    assert cof2.tobytes() == np.ascontiguousarray(cof3[:2, :2]).tobytes()


def test_batch_path_matches_lone_games():
    # the 6 000 games of one batch, each solved alone: at the parent of this
    # check, einsum's shape-dependent rounding made 35 of them differ
    rng = np.random.default_rng(59)
    for m, k in ((2, 2), (3, 3), (3, 4), (5, 5)):
        ent = rng.uniform(-1, 1, (m, k, 1500))
        batch = solve_games(ent, 1e-9)
        for j in range(ent.shape[2]):
            assert game_bytes(batch, j) == game_bytes(solve_games(ent[:, :, j:j + 1], 1e-9), 0)


def test_pending_pass_memory_bounded_by_chunk():
    # 20 000 unhinted 5 x 5 games, each a random 3 x 3 game plus two rows
    # that lose to every core row and two columns that lose to every core
    # column, so the kernels certify every game and the simplex never runs.
    # The pending pass evaluates each kernel size in chunks that gather at
    # most _CHUNK_ELEMENTS floats, and their temporaries (cofactors,
    # weights, products and partial sums) stay below twice that; so beyond
    # the extended entry table and the outputs the peak is at most three
    # chunk budgets of float64.
    rng = np.random.default_rng(61)
    n = 20_000
    core = rng.uniform(-1, 1, (3, 3, n))
    ent = np.empty((5, 5, n))
    ent[:3, :3] = core
    ent[3:, :3] = core.min(axis=0) - rng.uniform(0.1, 1, (2, 3, n))
    ent[:, 3:] = ent[:, :3].max(axis=1, keepdims=True) + rng.uniform(0.1, 1, (5, 2, n))
    solve_games(ent[:, :, :1], 1e-9)  # index tables built outside the measurement
    tracemalloc.start()
    try:
        batch = solve_games(ent, 1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(batch.kernel >= 0)
    assert np.any(batch.kernel >= 125)  # some games take a 3 x 3 kernel
    extended = 8 * (5 * 5 + 2) * n
    outputs = sum(a.nbytes for a in batch)
    assert peak <= extended + outputs + 3 * 8 * games._CHUNK_ELEMENTS
