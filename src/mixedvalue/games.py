"""Finite two-player zero-sum matrix games in mixed strategies.

This is the computational heart of the relaxed Hamiltonian: the sup over
probability measures on the first control grid against the inf over
measures on the second reduces, for a bilinear payoff, to a finite matrix
game.  :func:`solve_games` solves a whole batch of such games at once, one
per grid node, and is the package's one solver of mixed games;
:func:`pure_envelope` gives a batch's pure sup-inf or inf-sup envelope,
which the Isaacs gap is measured against.  Every matrix game has an
optimal pair supported on a square kernel M_S (Shapley & Snow 1950,
*Basic solutions of discrete games*), and with A = adj(M_S) and
s = 1^T A 1 != 0

    v = det(M_S) / s,    nu_S = A 1 / s,    mu_S = 1^T A / s.

Kernels of size up to 3 are solved in closed form for every node, and a
node takes the first candidate whose weights are nonnegative and whose
pure best responses certify the value (duality gap <= tol).  A node no
kernel certifies -- one whose optimal kernels are larger, or a degenerate
one with s = 0 -- falls back to a dense primal simplex on the shifted-game
linear program.

The closed forms read every kernel through index tables over one extended
entry table per batch: the m*k entries of each game, then a row of -0.0
and a row of ones.  A kernel of size r is padded to a size p >= r with the
identity, block-diag(M_S, I): its padded diagonal reads the ones row, its
other padded slots read the -0.0 row, and masks drop the padded weights.
So kernels of different sizes are evaluated together, in one pass of a few
dozen numpy calls.  For p <= 3 the padding changes no bit: the cofactors
on the real slots are those of M_S, and every padded term of a sum (of
cofactors, of det(M_S) along the first row, of a best response over the
support) is -0.0, which leaves the sum as it was.  Every sum runs left to
right and every operation is elementwise, so a game's bits are the same in
any batch, alone or among others, padded or not.

Conventions: rows belong to the maximizing player, columns to the
minimizing player, entries are payoffs to the maximizer.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

__all__ = [
    "GameError",
    "solve_games",
    "GameBatch",
    "pure_envelope",
]


class GameError(ValueError):
    """A game the solver rejects; ``node`` is its index in the batch, when known."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


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
# floats gathered by one chunk of the enumeration, candidates x nodes x the
# table length; bounds its memory on large batches
_CHUNK_ELEMENTS = 1 << 20
# a pass evaluates its candidates as one group padded to the largest size
# while candidates x nodes stay within this, and one unpadded group per size
# beyond: there the padded arithmetic costs more than the numpy calls that
# one group saves.  Either way gives the same bits.
_PAD_PAIRS = 1024
_WEIGHT_FLOOR = -1e-12


class GameBatch(NamedTuple):
    """Solutions of n games: value and gap (n,), mu (n, m), nu (n, k).

    ``kernel`` holds each game's certified support pair as an index into
    the enumeration of :func:`solve_games` (-1 where the simplex solved it);
    passing it back as ``hint`` tries those supports first.  The kernels
    are evaluated padded with the identity to a common size (see the
    module docstring), which changes no bit.  Every field of game j is the
    same, bit for bit, as when ent[:, :, j] and its hint are solved alone:
    no game's arithmetic depends on the other games in its batch.
    """

    value: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    gap: np.ndarray
    kernel: np.ndarray


@lru_cache(maxsize=None)
def _supports(m: int, k: int) -> tuple:
    """Kernel size (K,) of every enumerated support pair, and (size, first
    kernel index, count) per enumerated size.

    The square support pairs of each size r are numbered rows and then
    columns in lexicographic order, sizes in increasing order.
    """
    sizes, groups = [], []
    for r in range(1, min(m, k, _MAX_KERNEL) + 1):
        count = math.comb(m, r) * math.comb(k, r)
        if count <= _MAX_SUPPORTS:
            groups.append((r, len(sizes), count))
            sizes += [r] * count
    sizes = np.array(sizes, dtype=np.int64)
    sizes.flags.writeable = False
    return sizes, tuple(groups)


_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]


def _cofactor_operands(sub: np.ndarray) -> list:
    """Index blocks of the operands of the signed cofactors of ``sub``, p x p.

    -1 stands for the ones row of the extended entry table;
    :func:`_cofactors` turns the gathered blocks into cofactors.
    """
    p = sub.shape[0]
    if p == 1:
        return [np.full_like(sub, -1)]
    if p == 2:
        return [sub[::-1, ::-1]]
    # 3 x 3: C_ij = s[i+1, j+1] s[i+2, j+2] - s[i+1, j+2] s[i+2, j+1], mod 3
    a, b = sub[_NEXT], sub[_AFTER]
    return [a[:, _NEXT], b[:, _AFTER], a[:, _AFTER], b[:, _NEXT]]


# 2 x 2: C = [[d, 0 - c], [0 - b, a]], rounded as the 3 x 3 formula rounds a
# 2 x 2 kernel padded with the identity (d*1 + -0 is d, and -c + 0 is 0 - c)
_SIGN2 = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None, None]
_ZERO2 = np.array([[-0.0, 0.0], [0.0, -0.0]])[:, :, None, None]


def _cofactors(ops: np.ndarray) -> np.ndarray:
    """Signed cofactors (p, p, C, N) from the gathered operand blocks (q, p, p, C, N)."""
    p = ops.shape[1]
    if p == 3:
        return ops[0] * ops[1] - ops[2] * ops[3]
    if p == 2:
        return ops[0] * _SIGN2 + _ZERO2
    return ops[0]


@lru_cache(maxsize=None)
def _table(m: int, k: int, p: int) -> tuple:
    """Index tables of every enumerated kernel of size <= p, padded to p.

    The extended entry table of a batch has rows ent[i, j] at i*k + j, then
    a row of -0.0 (the zeros row) and a row of ones.  A kernel of size
    r < p is padded to size p with the identity: its padded diagonal slots
    read the ones row and its other padded slots the zeros row.  Column c
    of ``gather`` lists for kernel c, padded, the rows of the extended
    table that hold
      - the cofactor operands;
      - the kernel's first row;
      - a mask of its slots: ones for real slots, -0.0 for padded ones;
      - ent[i, cols[s]] for each slot s and row i, then ent[rows[s], j]
        for each slot s and column j.
    ``rows`` and ``cols`` (p, K) place the weights in the strategies; a
    padded slot names a row (column) outside the support, whose weight is
    zero.
    """
    zero = m * k
    blocks, rows_out, cols_out = [], [], []
    for r, _, _ in _supports(m, k)[1]:
        if r > p:
            break
        pairs = list(product(combinations(range(m), r), combinations(range(k), r)))
        rows = np.array([q[0] for q in pairs]).T  # (r, C)
        cols = np.array([q[1] for q in pairs]).T
        n_cand = rows.shape[1]
        sub = np.full((p, p, n_cand), zero)
        sub[:r, :r] = rows[:, None] * k + cols[None, :]
        sub[range(r, p), range(r, p)] = -1
        ops = np.stack(_cofactor_operands(sub))
        mask = np.full((p, n_cand), zero)
        mask[:r] = -1
        pay_row = np.full((p, m, n_cand), zero)
        pay_row[:r] = np.arange(m)[:, None] * k + cols[:, None]
        pay_col = np.full((p, k, n_cand), zero)
        pay_col[:r] = rows[:, None] * k + np.arange(k)[:, None]
        blocks.append(np.concatenate([
            ops.reshape(-1, n_cand), sub[0], mask,
            pay_row.reshape(-1, n_cand), pay_col.reshape(-1, n_cand)]))
        for taken, out in ((rows, rows_out), (cols, cols_out)):
            # the first index outside the support: the count of leading
            # slots that hold their own index
            free = np.cumprod(taken == np.arange(r)[:, None], axis=0).sum(axis=0)
            out.append(np.concatenate([taken, np.broadcast_to(free, (p - r, n_cand))]))
    gather = np.concatenate(blocks, axis=1)
    gather[gather == -1] = zero + 1
    tables = (gather, np.concatenate(rows_out, axis=1), np.concatenate(cols_out, axis=1))
    for arr in tables:
        arr.flags.writeable = False
    return tables


def _fold(terms):
    """terms[0] + terms[1] + ..., left to right."""
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    return acc


def _certify(ext, nodes, kern, p, tol, out) -> np.ndarray:
    """Evaluate kernels padded to size p on ``nodes``; accept the first certified one.

    ``ext`` is the batch's extended entry table, (m*k + 2, n), and ``kern``
    holds kernel indices of shape (C, 1), C candidates shared by every
    node, or (1, len(nodes)), one candidate per node.  Fills ``out`` at the
    accepted nodes and returns the accepted mask over ``nodes``.  Runs
    under the caller's np.errstate: a candidate with s = 0 divides by zero
    and is rejected.
    """
    n, m = out.mu.shape
    k = out.nu.shape[1]
    gather, rows_out, cols_out = _table(m, k, p)
    if kern.shape[1] == 1:  # candidates shared by every node: gather whole rows
        e = ext[:, nodes][gather[:, kern[:, 0]]]  # (L, C, N)
    else:
        e = ext.take(gather[:, kern] * n + nodes)
    shape = e.shape[1:]
    q = len(e) - p * (2 + m + k)
    cof = _cofactors(e[:q].reshape((q // (p * p), p, p) + shape))
    first_row, real = e[q:q + p], e[q + p:q + 2 * p]
    pay_row = e[q + 2 * p:q + 2 * p + p * m].reshape((p, m) + shape)
    pay_col = e[q + 2 * p + p * m:].reshape((p, k) + shape)
    # padded slots contribute -0.0, which leaves every sum as it was
    w = np.where(real, np.stack([_fold(cof), _fold(cof.swapaxes(0, 1))]), -0.0)
    total = _fold(w[0])  # s; w holds adj(M_S) 1 and 1^T adj(M_S)
    v = _fold(np.where(real, first_row * cof[0], -0.0)) / total  # det(M_S) / s
    w /= total
    ok = (w.min(axis=(0, 1)) >= _WEIGHT_FLOOR) & (total != 0)
    nu, mu = np.maximum(w, 0.0, out=w)
    row_br = _fold(pay_row * nu[:, None]).max(axis=0)
    col_br = _fold(pay_col * mu[:, None]).min(axis=0)
    g = row_br - col_br
    ok &= g <= tol
    value = np.minimum(np.maximum(v, col_br), row_br)
    hit = ok.any(axis=0)
    at = hit.nonzero()[0]
    c = ok.argmax(axis=0)[at]
    dest = nodes[at]
    chosen = kern[c, at] if kern.shape[1] > 1 else kern[c, 0]
    out.value[dest] = value[c, at]
    out.gap[dest] = g[c, at]
    out.kernel[dest] = chosen
    out.mu.reshape(-1)[dest * m + rows_out[:, chosen]] = mu[:, c, at]
    out.nu.reshape(-1)[dest * k + cols_out[:, chosen]] = nu[:, c, at]
    return hit


def solve_games(ent: np.ndarray, tol: float = 1e-9, hint: np.ndarray | None = None) -> GameBatch:
    """Mixed-strategy saddle points of the n games ent[:, :, j], (m, k, n).

    Square kernels of size r = 1, 2, 3 are tried in order, and each game
    takes the first one certified: nonnegative weights and duality gap
    <= ``tol``.  The value is kept inside its best-response bracket.  With
    ``hint`` (the ``kernel`` of an earlier batch of the same shape) each
    game first tries its earlier kernel; a hint that is not an integer
    array of shape (n,) is ignored, and so is an entry that names no
    kernel.  Games that no kernel certifies are solved by the simplex,
    which raises :class:`GameError` (with ``node`` set) if it cannot
    certify them either.  A batch with a non-finite entry raises
    :class:`GameError` naming the first such game and entry, and so does a
    game whose returned mu or nu is not a probability vector: finite,
    >= 0 and summing to 1 within 1e-12.
    """
    if tol <= 0:
        raise GameError("tol must be positive")
    ent = np.asarray(ent, dtype=float)
    if ent.ndim != 3 or min(ent.shape[:2]) < 1:
        raise GameError(f"expected an (m, k, n) batch of payoff matrices, got shape {ent.shape}")
    m, k, n = ent.shape
    finite = np.isfinite(ent)
    if not finite.all():
        node = int(np.argmin(finite.all(axis=(0, 1))))
        i, j = (int(a) for a in np.argwhere(~finite[:, :, node])[0])
        raise GameError(f"non-finite payoff {ent[i, j, node]} at entry ({i}, {j}) of game {node}",
                        node=node)
    out = GameBatch(np.empty(n), np.zeros((n, m)), np.zeros((n, k)), np.empty(n),
                    np.full(n, -1))
    ext = np.empty((m * k + 2, n))
    ext[:m * k].reshape(m, k, n)[...] = ent
    ext[m * k] = -0.0
    ext[m * k + 1] = 1.0
    pending = np.ones(n, dtype=bool)
    sizes, groups = _supports(m, k)
    hint = None if hint is None else np.asarray(hint)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if hint is not None and hint.shape == (n,) and hint.dtype.kind in "iu":
            hinted = np.flatnonzero((hint >= 0) & (hint < sizes.size))
            size = sizes[hint[hinted]]
            if n <= _PAD_PAIRS:  # one group, padded to the largest hinted size
                passes = [(int(size.max(initial=0)), hinted)]
            else:
                passes = [(r, hinted[size == r]) for r, _, _ in groups]
            for p, nodes in passes:
                if nodes.size:
                    pending[nodes[_certify(ext, nodes, hint[nodes][None, :], p, tol, out)]] = False
        if groups and np.count_nonzero(pending) * sizes.size <= _PAD_PAIRS:
            groups = [(groups[-1][0], 0, sizes.size)]  # every kernel, padded to the largest
        for p, offset, count in groups:
            nodes = np.flatnonzero(pending)
            if not nodes.size:
                break
            kern = np.arange(offset, offset + count)[:, None]
            chunk = max(1, _CHUNK_ELEMENTS // (count * len(_table(m, k, p)[0])))
            for start in range(0, nodes.size, chunk):
                part = nodes[start:start + chunk]
                pending[part[_certify(ext, part, kern, p, tol, out)]] = False
    for j in np.flatnonzero(pending):
        try:
            out.value[j], out.mu[j], out.nu[j], out.gap[j] = _solve_entries(ent[:, :, j], tol)
        except GameError as err:
            raise GameError(str(err), node=int(j)) from err
    for name, w in (("mu", out.mu), ("nu", out.nu)):
        # NaN fails both tests, and an infinite weight makes its sum inf or NaN;
        # the whole batch is tested first, which costs half as much
        dev = np.abs(w.sum(axis=1) - 1.0)
        if not (w.min(initial=0.0) >= _WEIGHT_FLOOR and dev.max(initial=0.0) <= 1e-12):
            j = int(np.argmin((w.min(axis=1) >= _WEIGHT_FLOOR) & (dev <= 1e-12)))
            raise GameError(f"{name} of game {j} is not a probability vector: {w[j].tolist()}",
                            node=j)
    return out


def pure_envelope(ent: np.ndarray, upper: bool) -> np.ndarray:
    """Pure sup-inf (lower) or inf-sup (``upper``) envelope of the games ent[:, :, j].

    ``ent`` is (m, k, n), or (m, k, *nodes) with any node axes; the result
    is (n,), or the nodes' shape.  The lower envelope is the max over rows
    of the min over columns, the upper one the min over columns of the max
    over rows, each folded in index order with np.minimum and np.maximum,
    so a tie between 0.0 and -0.0 resolves the same way in every batch.
    Entries are not checked: :func:`solve_games` checks them.
    """
    if upper:
        acc = np.copy(ent[0])  # (k, n): the max over rows, column by column
        for row in ent[1:]:
            np.maximum(acc, row, out=acc)
        reduce = np.minimum
    else:
        acc = np.copy(ent[:, 0])  # (m, n): the min over columns, row by row
        for iv in range(1, ent.shape[1]):
            np.minimum(acc, ent[:, iv], out=acc)
        reduce = np.maximum
    vals = acc[0]
    for line in acc[1:]:
        reduce(vals, line, out=vals)
    return vals

