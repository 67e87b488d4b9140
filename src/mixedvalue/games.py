"""Finite two-player zero-sum matrix games in mixed strategies.

This is the computational heart of the relaxed Hamiltonian: the sup over
probability measures on the first control grid against the inf over
measures on the second reduces, for a bilinear payoff, to a finite matrix
game.  :func:`solve_games` solves a whole batch of such games at once, one
per grid node.  Every matrix game has an optimal pair supported on a
square kernel M_S (Shapley & Snow 1950, *Basic solutions of discrete
games*), and with A = adj(M_S) and s = 1^T A 1 != 0

    v = det(M_S) / s,    nu_S = A 1 / s,    mu_S = 1^T A / s.

Kernels of size up to 3 are solved in closed form for every node, and a
node takes the first candidate whose weights are nonnegative and whose
pure best responses certify the value (duality gap <= tol).  A node no
kernel certifies -- one whose optimal kernels are larger, or a degenerate
one with s = 0 -- falls back to a dense primal simplex on the shifted-game
linear program.

Conventions: rows belong to the maximizing player, columns to the
minimizing player, entries are payoffs to the maximizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

__all__ = [
    "PayoffMatrix",
    "MixedStrategy",
    "GameSolution",
    "GameError",
    "solve_game",
    "solve_games",
    "GameBatch",
    "pure_minimax",
    "best_response_value",
]


class GameError(ValueError):
    """A game the solver rejects; ``node`` is its index in the batch, when known."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


@dataclass(frozen=True)
class PayoffMatrix:
    """m x k payoff matrix to the (row) maximizer."""

    entries: np.ndarray

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=float)
        if ent.ndim != 2 or ent.shape[0] < 1 or ent.shape[1] < 1:
            raise GameError(f"payoff matrix must be 2-d and non-empty, got shape {ent.shape}")
        if not np.all(np.isfinite(ent)):
            raise GameError("payoff matrix has non-finite entries")
        ent = ent.copy()
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def k(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class MixedStrategy:
    """Probability vector over a finite control grid."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise GameError("strategy weights must form a non-empty vector")
        if np.any(w < -1e-12) or not np.all(np.isfinite(w)):
            raise GameError("strategy weights must be nonnegative and finite")
        if abs(w.sum() - 1.0) > 1e-12:
            raise GameError(f"strategy weights must sum to 1, got {w.sum()!r}")
        w = np.maximum(w, 0.0)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class GameSolution:
    value: float
    mu_star: MixedStrategy
    nu_star: MixedStrategy
    duality_gap: float


def pure_minimax(matrix: PayoffMatrix) -> tuple[float, float]:
    """Pure-strategy bounds: (max-min over rows, min-max over columns)."""
    ent = matrix.entries
    lower = float(ent.min(axis=1).max())
    upper = float(ent.max(axis=0).min())
    return lower, upper


def best_response_value(matrix: PayoffMatrix, strategy: MixedStrategy, side: str) -> float:
    """Value of the best pure response against ``strategy``.

    ``side="row"``: the row player responds to a column strategy (max);
    ``side="col"``: the column player responds to a row strategy (min).
    """
    ent = matrix.entries
    w = strategy.weights
    if side == "row":
        if len(w) != matrix.k:
            raise GameError(f"expected column strategy of length {matrix.k}, got {len(w)}")
        return float((ent @ w).max())
    if side == "col":
        if len(w) != matrix.m:
            raise GameError(f"expected row strategy of length {matrix.m}, got {len(w)}")
        return float((w @ ent).min())
    raise GameError(f"side must be 'row' or 'col', got {side!r}")


# ---------------------------------------------------------------------------
# LP solver (dense primal simplex on the shifted game)
# ---------------------------------------------------------------------------
#
# For a game matrix with all entries >= 1 the column player's program
#     max  sum(q)   s.t.  M q <= 1,  q >= 0
# has optimum 1/v where v is the game value; the optimal column strategy is
# q/sum(q) and the row strategy is read from the dual (the objective-row
# coefficients of the slack columns in the final tableau).


def _simplex_game(ms: np.ndarray, tol_pivot: float = 1e-11):
    m, k = ms.shape
    tableau = np.zeros((m + 1, k + m + 1))
    tableau[:m, :k] = ms
    tableau[:m, k : k + m] = np.eye(m)
    tableau[:m, -1] = 1.0
    tableau[m, :k] = -1.0  # reduced costs of min(-sum q)
    basis = list(range(k, k + m))

    max_iter = 200 * (m + k) + 200
    bland_after = 20 * (m + k) + 20
    for it in range(max_iter):
        costs = tableau[m, : k + m]
        if it < bland_after:
            enter = int(np.argmin(costs))
            if costs[enter] >= -tol_pivot:
                break
        else:  # Bland's rule: first improving column, guarantees termination
            improving = np.nonzero(costs < -tol_pivot)[0]
            if improving.size == 0:
                break
            enter = int(improving[0])
        col = tableau[:m, enter]
        positive = col > tol_pivot
        if not positive.any():
            raise GameError("unbounded game LP (matrix should preclude this)")
        ratios = np.full(m, np.inf)
        ratios[positive] = tableau[:m, -1][positive] / col[positive]
        leave = int(np.argmin(ratios))
        pivot = tableau[leave, enter]
        tableau[leave] /= pivot
        rows = np.arange(m + 1) != leave
        tableau[rows] -= np.outer(tableau[rows, enter], tableau[leave])
        basis[leave] = enter
    else:  # pragma: no cover - defensive
        raise GameError("simplex failed to converge")

    q = np.zeros(k)
    for row, var in enumerate(basis):
        if var < k:
            q[var] = tableau[row, -1]
    p = tableau[m, k : k + m].copy()
    return q, p


def _solve_entries(ent: np.ndarray, tol: float):
    """Simplex solve of one game; returns (value, mu, nu, gap).

    The fallback of :func:`solve_games` for games no small kernel
    certifies; raises :class:`GameError` when the gap exceeds ``tol``.
    """
    m, k = ent.shape
    if m == 1 and k == 1:
        one = np.array([1.0])
        return float(ent[0, 0]), one, one, 0.0
    shift = 1.0 - ent.min()
    q, p = _simplex_game(ent + shift)
    q = np.maximum(q, 0.0)
    p = np.maximum(p, 0.0)
    qs, ps = q.sum(), p.sum()
    if qs <= 0 or ps <= 0:  # pragma: no cover - defensive
        raise GameError("degenerate LP solution")
    nu = q / qs
    mu = p / ps
    value = 1.0 / qs - shift
    row_br = float((ent @ nu).max())
    col_br = float((mu @ ent).min())
    gap = row_br - col_br
    if gap > tol:
        raise GameError(f"saddle-point tolerance not met: duality gap {gap:.3e} > {tol:.1e}")
    # keep the reported value inside the certified best-response bracket
    value = min(max(value, col_br), row_br)
    return float(value), mu, nu, float(gap)


# ---------------------------------------------------------------------------
# Batched kernel solver (Shapley-Snow basic solutions)
# ---------------------------------------------------------------------------

_MAX_KERNEL = 3
# a kernel size with more support pairs than this is not enumerated; games
# that need it take the simplex
_MAX_SUPPORTS = 4096
# floats held at once by one chunk of the enumeration, candidates x nodes x
# (r*r + m + k); bounds its memory on large batches
_CHUNK_ELEMENTS = 1 << 20
_WEIGHT_FLOOR = -1e-12


class GameBatch(NamedTuple):
    """Solutions of n games: value and gap (n,), mu (n, m), nu (n, k).

    ``kernel`` holds each game's certified support pair as an index into
    the enumeration of :func:`solve_games` (-1 where the simplex solved it);
    passing it back as ``hint`` tries those supports first.
    """

    value: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    gap: np.ndarray
    kernel: np.ndarray


@lru_cache(maxsize=None)
def _supports(m: int, k: int) -> tuple:
    """(first kernel index, rows (C, r), cols (C, r)) per enumerated size r.

    The C square support pairs of size r, rows and then columns in
    lexicographic order; kernel indices number them across sizes.
    """
    out = []
    offset = 0
    for r in range(1, min(m, k, _MAX_KERNEL) + 1):
        if math.comb(m, r) * math.comb(k, r) > _MAX_SUPPORTS:
            continue
        pairs = list(product(combinations(range(m), r), combinations(range(k), r)))
        rows = np.array([p[0] for p in pairs])
        cols = np.array([p[1] for p in pairs])
        for arr in (rows, cols):
            arr.flags.writeable = False
        out.append((offset, rows, cols))
        offset += len(pairs)
    return tuple(out)


_SIGN2 = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None, None]
_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]


def _cofactors(sub: np.ndarray) -> np.ndarray:
    """Signed cofactors of the r x r kernels sub[i, j, ...], r <= 3."""
    r = sub.shape[0]
    if r == 1:
        return np.ones_like(sub)
    if r == 2:
        return sub[::-1, ::-1] * _SIGN2
    # 3 x 3: C_ij = s[i+1, j+1] s[i+2, j+2] - s[i+1, j+2] s[i+2, j+1], mod 3
    a, b = sub[_NEXT], sub[_AFTER]
    return a[:, _NEXT] * b[:, _AFTER] - a[:, _AFTER] * b[:, _NEXT]


def _try_kernels(ent, nodes, rows, cols, tol, out):
    """Evaluate candidate kernels on ``nodes``; accept the first certified one.

    ``rows`` and ``cols`` have shape (r, C, 1) for C candidates shared by
    every node, or (r, 1, len(nodes)) for one candidate per node.  Fills
    ``out`` at the accepted nodes except for ``kernel``; returns the
    accepted mask over ``nodes`` and the accepted candidate of each.
    """
    m, k, _ = ent.shape
    sub = ent[rows[:, None], cols[None, :], nodes]  # (r, r, C, n)
    n_cand, n_nodes = sub.shape[2:]
    cof = _cofactors(sub)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        nu_s = cof.sum(axis=0)  # adj(M_S) 1
        mu_s = cof.sum(axis=1)  # 1^T adj(M_S)
        total = nu_s.sum(axis=0)
        v = (sub[0] * cof[0]).sum(axis=0) / total  # det(M_S) / s
        nu_s /= total
        mu_s /= total
        ok = (nu_s.min(axis=0) >= _WEIGHT_FLOOR) & (mu_s.min(axis=0) >= _WEIGHT_FLOOR)
        cand, node = np.arange(n_cand)[:, None], np.arange(n_nodes)
        nu_f = np.zeros((n_cand, k, n_nodes))
        mu_f = np.zeros((n_cand, m, n_nodes))
        nu_f[cand, cols, node] = np.maximum(nu_s, 0.0)
        mu_f[cand, rows, node] = np.maximum(mu_s, 0.0)
        e = ent[:, :, nodes]
        row_br = np.einsum("ijn,cjn->cin", e, nu_f).max(axis=1)
        col_br = np.einsum("ijn,cin->cjn", e, mu_f).min(axis=1)
        g = row_br - col_br
        ok &= (g <= tol) & (total != 0)
    hit = ok.any(axis=0)
    at = np.flatnonzero(hit)
    first = ok.argmax(axis=0)[at]
    dest = nodes[at]
    out.value[dest] = np.minimum(np.maximum(v[first, at], col_br[first, at]), row_br[first, at])
    out.mu[dest] = mu_f[first, :, at]
    out.nu[dest] = nu_f[first, :, at]
    out.gap[dest] = g[first, at]
    return hit, first


def solve_games(ent: np.ndarray, tol: float = 1e-9, hint: np.ndarray | None = None) -> GameBatch:
    """Mixed-strategy saddle points of the n games ent[:, :, j], (m, k, n).

    Square kernels of size r = 1, 2, 3 are tried in order, and each game
    takes the first one certified: nonnegative weights and duality gap
    <= ``tol``.  The value is kept inside its best-response bracket.  With
    ``hint`` (the ``kernel`` of an earlier batch of the same shape) each
    game first tries its earlier kernel.  Games that no kernel certifies
    are solved by the simplex, which raises :class:`GameError` (with
    ``node`` set) if it cannot certify them either.
    """
    if tol <= 0:
        raise GameError("tol must be positive")
    ent = np.asarray(ent, dtype=float)
    if ent.ndim != 3 or min(ent.shape[:2]) < 1:
        raise GameError(f"expected an (m, k, n) batch of payoff matrices, got shape {ent.shape}")
    m, k, n = ent.shape
    out = GameBatch(np.empty(n), np.empty((n, m)), np.empty((n, k)), np.empty(n),
                    np.full(n, -1))
    pending = np.ones(n, dtype=bool)
    supports = _supports(m, k)
    if hint is not None and hint.shape == (n,):
        for offset, rows, cols in supports:
            nodes = np.flatnonzero((hint >= offset) & (hint < offset + len(rows)))
            if nodes.size:
                c = hint[nodes] - offset
                hit, _ = _try_kernels(ent, nodes, rows[c].T[:, None], cols[c].T[:, None], tol, out)
                out.kernel[nodes[hit]] = hint[nodes[hit]]
                pending[nodes[hit]] = False
    for offset, rows, cols in supports:
        nodes = np.flatnonzero(pending)
        if not nodes.size:
            break
        r = rows.shape[1]
        chunk = max(1, _CHUNK_ELEMENTS // (len(rows) * (r * r + m + k)))
        for start in range(0, nodes.size, chunk):
            part = nodes[start:start + chunk]
            hit, first = _try_kernels(ent, part, rows.T[:, :, None], cols.T[:, :, None], tol, out)
            out.kernel[part[hit]] = offset + first
            pending[part[hit]] = False
    for j in np.flatnonzero(pending):
        try:
            out.value[j], out.mu[j], out.nu[j], out.gap[j] = _solve_entries(ent[:, :, j], tol)
        except GameError as err:
            raise GameError(str(err), node=int(j)) from err
    return out


def solve_game(matrix: PayoffMatrix, tol: float = 1e-9) -> GameSolution:
    """Mixed-strategy saddle point of a zero-sum matrix game.

    Returns value, optimal strategies for both players and the duality gap
    measured through pure best responses: :func:`solve_games` on a batch
    of one.  With equal inputs the output is bitwise reproducible.
    """
    batch = solve_games(matrix.entries[:, :, None], tol)
    return GameSolution(float(batch.value[0]), MixedStrategy(batch.mu[0]),
                        MixedStrategy(batch.nu[0]), float(batch.gap[0]))
