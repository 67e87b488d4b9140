"""Monotone explicit finite differences for the limiting HJBI equation.

The scheme discretizes, backward in time from the terminal cost,

    dV/dt + value{ 0.5 tr(sigma sigma^T A) + b.p + f(t,x,y,p.sigma,u,v) } = 0

where ``value`` is the mixed-strategy saddle value of the control matrix
(relaxed mode) or the pure sup-inf / inf-sup envelope (pure modes).  For
each control pair the generator at a node is a fixed set of weights w_j on
the node's 3^d neighbourhood, the Kushner-Dupuis stencil: upwind first
differences chosen by the sign of each drift component, central second
differences, and for d=2 the 7-point cross stencil following the sign of
a01 = (sigma sigma^T)_01 (which needs the diagonal dominance that
load_problem enforces).  The weights sum to zero and are >= 0 off the
centre, so dt * w_j and, at the centre, 1 + dt * w_centre are the
transition probabilities of a Markov chain on the grid; the CFL condition
is that this centre weight is >= 0.  Every matrix entry is then a monotone
affine map of the level and the scheme satisfies a discrete comparison
principle.  The declared bounds give the CFL condition when

    dt * ( sum_i sup(sigma sigma^T)_ii / h_i^2
           + sum_i sup|b_i| / h_i + Lip_y(f) ) <= 1.

Boundary handling: ``clamp`` copies the nearest interior value after each
update (homogeneous Neumann), ``periodic`` wraps the stencil.

A solve names its step times to its :class:`Stepper` up front: coefficient
entries that name t are evaluated once per block of those times, with t on
a leading axis, the others once per solve.  Each step gathers the 3^d
neighbourhoods with one copy from a (3,)*d window view of the padded level.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .games import GameError, pure_envelope, solve_games
from .problem import Problem, interior_window, value_bound

__all__ = [
    "SpaceGrid",
    "ValueField",
    "SchemeParams",
    "CflViolationError",
    "NonFiniteFieldError",
    "cfl_limit",
    "terminal_field",
    "solve",
    "gap_report",
    "GapReport",
    "window_mask",
    "discrete_lipschitz",
]

_TIME = frozenset(("t",))

_MODES = ("relaxed", "pure_lower", "pure_upper")


class CflViolationError(ValueError):
    pass


class NonFiniteFieldError(ArithmeticError):
    pass


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform tensor grid including both endpoints of each axis."""

    x_min: np.ndarray
    x_max: np.ndarray
    counts: tuple

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.x_min, dtype=float))
        hi = np.atleast_1d(np.asarray(self.x_max, dtype=float))
        counts = tuple(int(c) for c in np.atleast_1d(self.counts))
        if lo.shape != hi.shape or len(counts) != lo.size:
            raise ValueError("grid specification dimensions disagree")
        if any(c < 3 for c in counts):
            raise ValueError("each axis needs at least 3 nodes")
        if not np.all(lo < hi):
            raise ValueError("grid requires x_min < x_max")
        for arr in (lo, hi):
            arr.flags.writeable = False
        object.__setattr__(self, "x_min", lo)
        object.__setattr__(self, "x_max", hi)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def for_problem(cls, prob: Problem, nx) -> "SpaceGrid":
        counts = (nx,) * prob.d if np.isscalar(nx) else tuple(nx)
        return cls(prob.domain.x_min, prob.domain.x_max, counts)

    @property
    def d(self) -> int:
        return len(self.counts)

    @property
    def h(self) -> np.ndarray:
        return (self.x_max - self.x_min) / (np.array(self.counts) - 1)

    @property
    def axes(self) -> tuple:
        return tuple(
            np.linspace(self.x_min[i], self.x_max[i], self.counts[i])
            for i in range(self.d)
        )

    @property
    def shape(self) -> tuple:
        return self.counts

    def meshes(self) -> tuple:
        return tuple(np.meshgrid(*self.axes, indexing="ij"))


@dataclass(frozen=True)
class ValueField:
    """Values of a value function on the grid at one time."""

    t: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            node = tuple(int(i) for i in np.argwhere(~np.isfinite(vals))[0])
            raise NonFiniteFieldError(f"non-finite value at node {node} (t={self.t})")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def _adopt(cls, t: float, values: np.ndarray) -> "ValueField":
        """A field holding ``values``, a fresh finite level: an array or a row of one.

        It is made read-only in place, without the copy and the scan of the
        constructor: :meth:`Stepper._finish`, or the field a row was copied
        from, has already scanned it.
        """
        values.flags.writeable = False
        field = object.__new__(cls)
        object.__setattr__(field, "t", t)
        object.__setattr__(field, "values", values)
        return field

    def check_bound(self, prob: Problem) -> None:
        limit = 1.1 * value_bound(prob) + 1e-9
        sup = float(np.max(np.abs(self.values)))
        if sup > limit:
            raise NonFiniteFieldError(
                f"field sup-norm {sup:.4g} exceeds the a-priori bound "
                f"{value_bound(prob):.4g} plus 10% slack (t={self.t})"
            )


@dataclass(frozen=True)
class SchemeParams:
    """Parameters of the explicit scheme.

    ``dt=None`` derives the step from the CFL limit scaled by
    ``cfl_safety``.  ``game_tol`` bounds the certified duality gap of every
    relaxed local game.  :func:`solve` reads every field; :func:`gap_report`
    all but ``hamiltonian_mode``, which it sets itself and so requires to be
    the default "relaxed";
    ``partition.dpp_sweep`` and ``partition.convergence_study`` only
    ``game_tol`` and ``cfl_safety``, which sets the sweep's substep counts
    (the sweep rejects the other two).
    """

    dt: float | None = None
    hamiltonian_mode: str = "relaxed"
    game_tol: float = 1e-9
    cfl_safety: float = 0.9

    def __post_init__(self):
        if self.hamiltonian_mode not in _MODES:
            raise ValueError(f"unknown hamiltonian_mode {self.hamiltonian_mode!r}")
        if not (0 < self.cfl_safety <= 1):
            raise ValueError("cfl_safety must lie in (0, 1]")
        if not 0 < self.game_tol < np.inf:
            raise ValueError(f"game_tol must be finite and positive, got {self.game_tol}")


def cfl_limit(prob: Problem, grid: SpaceGrid) -> float:
    """Largest stable time step per the declared coefficient bounds."""
    h = grid.h
    bd = prob.bounds
    denom = (
        bd.sup_sigma**2 * float(np.sum(1.0 / h**2))
        + bd.sup_b * float(np.sum(1.0 / h))
        + bd.lip_y_f
    )
    if denom <= 0:
        return math.inf
    return 1.0 / denom


def terminal_field(prob: Problem, grid: SpaceGrid) -> ValueField:
    x = np.stack(grid.meshes(), axis=-1)
    vals = np.broadcast_to(np.asarray(prob.terminal_cost(x), dtype=float), grid.shape)
    return ValueField(t=prob.T, values=np.array(vals))


# ---------------------------------------------------------------------------
# Stencil machinery
# ---------------------------------------------------------------------------


def _stencil_pattern(h) -> np.ndarray:
    """The weight each unit feature puts on each node of the 3^d neighbourhood.

    Rows are the features in :meth:`Stepper._features` order: max(b_i, 0)
    and max(-b_i, 0) per axis (upwind differences), (sigma sigma^T)_ii per
    axis (central second differences) and, for d = 2, max(a01, 0) and
    max(-a01, 0) (the cross stencil on the diagonal or the anti-diagonal).
    Columns are the offsets in {-1, 0, 1}^d, row-major.  Rows sum to zero.
    """
    d = len(h)
    offsets = list(itertools.product((-1, 0, 1), repeat=d))
    centre = (0,) * d

    def unit(i, s):
        return tuple(s if j == i else 0 for j in range(d))

    rows = []
    for i in range(d):
        rows.append({unit(i, 1): 1.0 / h[i], centre: -1.0 / h[i]})
        rows.append({unit(i, -1): 1.0 / h[i], centre: -1.0 / h[i]})
    for i in range(d):
        rows.append({unit(i, 1): 0.5 / h[i] ** 2, unit(i, -1): 0.5 / h[i] ** 2,
                     centre: -1.0 / h[i] ** 2})
    if d == 2:
        den = 2.0 * h[0] * h[1]
        axes = {centre: 2.0 / den, **{unit(i, s): -1.0 / den for i in range(2) for s in (1, -1)}}
        rows.append({**axes, (1, 1): 1.0 / den, (-1, -1): 1.0 / den})
        rows.append({**axes, (1, -1): 1.0 / den, (-1, 1): 1.0 / den})
    pattern = np.zeros((len(rows), len(offsets)))
    for r, row in enumerate(rows):
        for off, w in row.items():
            pattern[r, offsets.index(off)] = w
    return pattern


@dataclass(frozen=True)
class _StencilCoefficients:
    """Coefficients, each entry in its own broadcast shape, and their weights.

    In a schedule block the entries that name t, and the features and
    weights when b or sigma name t, carry a leading axis of the block's
    times; :meth:`Stepper._coefficients` returns one time's row.
    """

    b: tuple
    sigma: tuple
    f: object  # f at y = 0, z = 0; None when f names y or z, as entries evaluates it per level
    features: np.ndarray  # (m, k, n_features, *nodes), nodes all 1 when b, sigma are free of x
    weights: object  # (m*k, 3^d), the features times the pattern, when free of x; else None


# the most elements that the time-dependent coefficient tables of one
# schedule block (entries, features) may hold
_BLOCK_ELEMENTS = 1 << 20


def _timed(names):
    """Nested variable sets as nested flags of naming t; a subtree free of t is False."""
    if isinstance(names, tuple):
        flags = tuple([_timed(n) for n in names])
        return flags if any(flags) else False
    return names is not None and "t" in names


def _row(entries, timed, i):
    """``entries`` with row i taken of each entry that ``timed`` flags."""
    if timed.__class__ is tuple:
        return tuple([_row(e, flag, i) for e, flag in zip(entries, timed)])
    return entries[i] if timed else entries


class Stepper:
    """Precomputed per-(grid, problem) stencil state.

    A control pair's generator at a work node is its weights W on the
    node's 3^d neighbourhood S, the :func:`_stencil_pattern` applied to the
    features of b and sigma.  :meth:`entries` gathers S with one copy: the
    level goes into a reused padded buffer (as it is under clamp
    boundaries, its periodic cell wrapped by one node otherwise), and a
    precomputed (3,)*d window view of that buffer fills S.  It returns
    W @ S + f: one matrix product of (pairs, 3^d) by (3^d, nodes) when b
    and sigma are free of x.  Otherwise the features carry the node axes,
    and the same weights are applied as the features times (pattern @ S),
    which never forms a (pairs, 3^d, nodes) array.

    b, sigma and f(y=0, z=0) are evaluated on the work region for every
    control pair at once, an entry that is free of t once per Stepper.  A
    caller names the times it will step through with :meth:`schedule`:
    the entries that name t are then evaluated once per schedule block,
    with t on a leading axis, and so are their features (and the weights
    when b and sigma are free of x), so a level only looks up its row.  A
    time that was not scheduled is a block of one, evaluated at each call.
    An f that names y or z is evaluated at every call, with the level and
    its upwind gradient, the pattern's drift rows applied to S.
    :meth:`game_values` values the local games of a level.  Also used by the
    partition module's one march under held strategies, which
    ``partition.dpp_sweep`` and ``montecarlo.exploit`` share: it advances
    with :meth:`step_frozen`, which takes the level's :meth:`entries` from
    its caller, and :meth:`game_values` only reads them, so a sweep steps
    its first substep on the entries its games were solved on.
    """

    def __init__(self, prob: Problem, grid: SpaceGrid, game_tol: float = 1e-9):
        if prob.d != grid.d:
            raise ValueError(f"grid dimension {grid.d} does not match problem d={prob.d}")
        self.prob = prob
        self.grid = grid
        self.game_tol = game_tol
        self.mode = prob.domain.boundary_mode
        self.d = prob.d
        self.h = grid.h
        self.m = prob.u_grid.n
        self.k = prob.v_grid.n

        # the work region of a level: the interior under clamp boundaries,
        # the periodic cell (last node on each axis dropped) otherwise
        inner = slice(1, -1) if self.mode == "clamp" else slice(None, -1)
        self._work = (inner,) * self.d
        work_axes = tuple(ax[inner] for ax in grid.axes)
        self.work_shape = tuple(len(ax) for ax in work_axes)
        if any(n < 1 for n in self.work_shape):
            raise ValueError("grid too small for the boundary mode")
        # work-region states (*work, d) and control indices (m, 1, 1..),
        # (1, k, 1..): one coefficient evaluation covers every control pair
        self._xw = np.stack(np.meshgrid(*work_axes, indexing="ij"), axis=-1)
        ones = (1,) * self.d
        self._iu = np.arange(self.m).reshape((self.m, 1) + ones)
        self._iv = np.arange(self.k).reshape((1, self.k) + ones)
        self._yz = frozenset(("y", *prob.z_names()))
        self._offsets = tuple(itertools.product((-1, 0, 1), repeat=self.d))
        self._pattern = _stencil_pattern(self.h)
        self._kernels = None  # per-node kernel of the last relaxed game solve
        self._scratch = {}  # work arrays by name, reused across calls

        # the neighbourhood gather: hood[j] is the level shifted by offset j,
        # one copy from the (3,)*d window view of the padded level
        pad = self._scratch["pad"] = np.empty(tuple(n + 2 for n in self.work_shape))
        hood = self._scratch["hood"] = np.empty((len(self._offsets),) + self.work_shape)
        window = np.lib.stride_tricks.as_strided(
            pad, (3,) * self.d + self.work_shape, pad.strides * 2, writeable=False)
        self._gather = (hood.reshape((3,) * self.d + self.work_shape), window)

        # the entries evaluated here, which of them name t, and the size of
        # one time's row of the tables they give
        b_names, sigma_names, f_names = prob._entry_variables
        f_names = None if prob.f_needs_yz else f_names
        self._timed = _timed((b_names, sigma_names, f_names))  # False if none names t
        self._features_timed = bool(self._timed and (self._timed[0] or self._timed[1]))
        named = frozenset().union(*b_names, *(n for row in sigma_names for n in row),
                                  f_names or ())
        self._row_elements = self.m * self.k * len(self._pattern) * (
            math.prod(self.work_shape) if named.intersection(prob.x_names()) else 1)
        self._block = None  # coefficients of the last evaluated block of times
        self._rows = {}  # scheduled time -> its row in self._block
        self._blocks = {}  # scheduled time -> the times of its block

    # -- stencil ------------------------------------------------------------

    def _array(self, name, shape):
        """The work array ``name`` of the given shape, allocated on first use."""
        arr = self._scratch.get(name)
        if arr is None or arr.shape != shape:
            arr = self._scratch[name] = np.empty(shape)
        return arr

    def schedule(self, times) -> None:
        """Declare the times that the following steps are taken at.

        The entries that name t are evaluated for consecutive times of
        ``times`` in blocks, each holding at most ``_BLOCK_ELEMENTS``
        elements of time-dependent tables (and at least one time).  When
        no entry names t there is nothing to schedule, and ``times`` is
        not read.
        """
        if not self._timed:
            return
        times = list(dict.fromkeys(times))
        size = max(1, _BLOCK_ELEMENTS // self._row_elements)
        self._blocks = {}
        for start in range(0, len(times), size):
            block = tuple(times[start:start + size])
            self._blocks.update(dict.fromkeys(block, block))
        self._rows = {}

    def _coefficients(self, t) -> _StencilCoefficients:
        """Stencil coefficients at t: a row of the block that holds t."""
        if self._block is not None and not self._timed:
            return self._block
        row = self._rows.get(t)
        if row is None:
            times = self._blocks.get(t, (t,))
            self._evaluate_block(times)
            # a time that was not scheduled is evaluated again at its next call
            self._rows = {s: i for i, s in enumerate(times)} if t in self._blocks else {}
            row = times.index(t)
        co = self._block
        b, sigma, f = _row((co.b, co.sigma, co.f), self._timed, row)
        if not self._features_timed:
            return _StencilCoefficients(b, sigma, f, co.features, co.weights)
        return _StencilCoefficients(b, sigma, f, co.features[row],
                                    None if co.weights is None else co.weights[row])

    def _evaluate_block(self, times) -> None:
        """Evaluate the entries that name t at ``times``, t on a leading axis.

        Entries free of t, and their features, are those of the previous
        block.
        """
        old = self._block
        t = np.array(times, dtype=float).reshape((-1,) + (1,) * (2 + self.d))
        b, sig, f = self.prob.coefficients(
            t, self._xw, self._iu, self._iv,
            previous=None if old is None else (old.b, old.sigma, old.f), changed=_TIME,
            with_f=not self.prob.f_needs_yz,
        )
        if old is not None and b is old.b and sig is old.sigma:
            feats, weights = old.features, old.weights
        else:
            feats, weights = self._features(b, sig)
        self._block = _StencilCoefficients(b=b, sigma=sig, f=f, features=feats, weights=weights)

    def _features(self, b, sig) -> tuple:
        """The features of b and sigma and, when they are free of x, the weights.

        The features live in one array, in the broadcast shape of b and
        sigma with full control axes (and the block's time axis when b or
        sigma name t), feature axis after the control axes.
        """
        d, n_feat = self.d, len(self._pattern)
        shape = np.broadcast_shapes((self.m, self.k) + (1,) * d, *(np.shape(e) for e in b),
                                    *(np.shape(e) for row in sig for e in row))
        lead = shape[:-2 - d]
        feats = np.empty(shape[:-d] + (n_feat,) + shape[-d:])
        out = np.moveaxis(feats, -1 - d, 0)
        for i, bi in enumerate(b):
            np.maximum(bi, 0.0, out=out[2 * i])
            np.maximum(np.negative(bi, out=out[2 * i + 1]), 0.0, out=out[2 * i + 1])
        for i, row in enumerate(sig):
            out[2 * d + i][...] = sum((e * e for e in row[1:]), row[0] * row[0])
        if d == 2:
            a01 = sig[0][0] * sig[1][0] + sig[0][1] * sig[1][1]
            np.maximum(a01, 0.0, out=out[-2])
            np.maximum(np.negative(a01), 0.0, out=out[-1])
        flat = feats.reshape(lead + (self.m * self.k, n_feat, -1))
        return feats, (flat[..., 0] @ self._pattern if flat.shape[-1] == 1 else None)

    def entries(self, values: np.ndarray, t: float) -> np.ndarray:
        """Per-(u,v) discrete generator applied to the level.

        Returns a fresh (m, k, *work) array; every [iu, iv] slice is a
        monotone affine function of the level under the CFL restriction.
        """
        d, n_hood = self.d, len(self._offsets)
        co = self._coefficients(t)
        pad = self._scratch["pad"]
        if self.mode == "clamp":
            np.copyto(pad, values)
        else:  # the periodic cell, wrapped by one node on each axis
            np.copyto(pad[(slice(1, -1),) * d], values[self._work])
            for axis in range(d):
                lead = (slice(None),) * axis
                pad[lead + (0,)] = pad[lead + (-2,)]
                pad[lead + (-1,)] = pad[lead + (1,)]
        np.copyto(*self._gather)
        hood = self._scratch["hood"]
        s = hood.reshape(n_hood, -1)
        if co.weights is not None:
            gen = co.weights @ s
        else:
            flat = co.features.reshape(self.m * self.k, len(self._pattern), -1)
            gen = np.einsum("pfn,fn->pn", flat, self._pattern @ s)
        gen = gen.reshape((self.m, self.k) + self.work_shape)

        f = co.f
        if f is None:  # y is the level, z the upwind gradient times sigma
            # the drift rows give forward and negated backward differences
            grad = (self._pattern[:2 * d] @ s).reshape((2 * d,) + self.work_shape)
            p = [np.where(np.asarray(bi) >= 0.0, grad[2 * i], -grad[2 * i + 1])
                 for i, bi in enumerate(co.b)]
            sig = co.sigma
            z = [sum((p[i] * sig[i][j] for i in range(1, d)), p[0] * sig[0][j])
                 for j in range(d)]
            # b and sigma are this row's: only f, which names y or z, is evaluated
            _, _, f = self.prob.coefficients(
                t, self._xw, self._iu, self._iv, hood[n_hood // 2],
                np.stack(np.broadcast_arrays(*z), axis=-1), (co.b, sig, None), self._yz)
        gen += f  # also when f is 0: it turns a -0.0 generator entry into +0.0
        return gen

    # -- local games ---------------------------------------------------------

    def game_values(self, ent: np.ndarray, mode: str, t: float,
                    collect_strategies: bool = False):
        """Per-node values of the local games ``ent``, (m, k, *work), at time t.

        In ``mode`` "relaxed" each game's value is its mixed saddle value
        from :func:`games.solve_games`, one batch per call, each node
        starting from the kernel that certified it on the previous call.
        "pure_lower" and "pure_upper" take the envelope of
        :func:`games.pure_envelope`, and so does a relaxed 1x1 game, whose
        value is its entry.  Returns (values, mu, nu); with
        ``collect_strategies`` mu (*work, m) and nu (*work, k) are the
        saddle strategies, or the envelope's point masses on the lowest
        index that attains it, else both are None.  A game the solver
        rejects raises :class:`GameError` naming its grid node and t.
        """
        work = ent.shape[2:]
        if mode != "relaxed" or self.m * self.k == 1:
            vals = pure_envelope(ent, upper=mode != "pure_lower")
            if not collect_strategies:
                return vals, None, None
            mu = np.zeros(work + (self.m,))
            nu = np.zeros(work + (self.k,))
            if mode == "pure_lower":
                iu = ent.min(axis=1).argmax(axis=0)
                iv = np.take_along_axis(ent, iu[None, None], axis=0)[0].argmin(axis=0)
            else:
                iv = ent.max(axis=0).argmin(axis=0)
                iu = np.take_along_axis(ent, iv[None, None], axis=1)[:, 0].argmax(axis=0)
            np.put_along_axis(mu, iu[..., None], 1.0, axis=-1)
            np.put_along_axis(nu, iv[..., None], 1.0, axis=-1)
            return vals, mu, nu
        try:
            batch = solve_games(ent.reshape(self.m, self.k, -1), self.game_tol, self._kernels)
        except GameError as err:
            first = 1 if self.mode == "clamp" else 0  # grid index of work node 0
            node = tuple(int(i) + first for i in np.unravel_index(err.node, work))
            raise GameError(f"local game at grid node {node} (t={t}): {err}",
                            node=err.node) from err
        self._kernels = batch.kernel
        vals = batch.value.reshape(work)
        if collect_strategies:
            return vals, batch.mu.reshape(work + (self.m,)), batch.nu.reshape(work + (self.k,))
        return vals, None, None

    # -- stepping -------------------------------------------------------------

    def _finish(self, values, vals, dt, t_new, out=None):
        """The next level: values + dt * vals on the work region, then the boundary.

        It is written into ``out`` when given, else into a new array.
        """
        new = np.empty(values.shape) if out is None else out
        inc = np.multiply(dt, vals, out=self._array("increment", self.work_shape))
        np.add(values[self._work], inc, out=new[self._work])
        # axis by axis, clamp copies each end's neighbour, periodic copies
        # node 0 to the last node (so a periodic corner is new[0, ..., 0])
        edges = ((0, 1), (-1, -2)) if self.mode == "clamp" else ((-1, 0),)
        for axis in range(self.d):
            lead = (slice(None),) * axis
            for end, source in edges:
                new[lead + (end,)] = new[lead + (source,)]
        if not np.isfinite(new).all():
            node = tuple(int(i) for i in np.argwhere(~np.isfinite(new))[0])
            raise NonFiniteFieldError(f"non-finite value at node {node} (t={t_new})")
        return new

    def step(self, values, t, dt, mode, out=None):
        """One explicit step from level t to t - dt; returns the new level (``out`` if given)."""
        vals, _, _ = self.game_values(self.entries(values, t), mode, t)
        return self._finish(values, vals, dt, t - dt, out)

    def step_frozen(self, values, ent, t, dt, mu, nu):
        """One step under frozen per-node mixed strategies.

        ``ent`` is the level's generator, ``self.entries(values, t)``: the
        caller computes it, so that a generator it has already computed
        for the local games is not computed again.  One of ``mu`` and
        ``nu`` may be None: that player is free and plays a pure best
        response at every node, the maximizing u against ``nu`` or the
        minimizing v against ``mu``.
        """
        if mu is None and nu is None:
            raise ValueError("at most one player may be free")
        if mu is None:
            vals = np.einsum("mk...,...k->m...", ent, nu).max(0)
        elif nu is None:
            vals = np.einsum("mk...,...m->k...", ent, mu).min(0)
        else:
            vals = np.einsum("mk...,...m,...k->...", ent, mu, nu)
        return self._finish(values, vals, dt, t - dt)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def solve(prob: Problem, grid: SpaceGrid, params: SchemeParams) -> list:
    """Backward solve from T to 0; returns every level, newest first at T.

    The number of steps is chosen so the uniform dt is the largest value
    not exceeding params.dt (or the CFL-safety limit when dt is None).
    A dt that is not positive, or above that limit, raises
    :class:`CflViolationError`.

    The levels are read-only rows of one ``(n_steps + 1, *grid.shape)``
    array, so keeping any one of them keeps the whole history alive.
    """
    return list(_levels(prob, grid, params, one_array=True))


def _levels(prob: Problem, grid: SpaceGrid, params: SchemeParams, *, one_array=False):
    """The levels of :func:`solve`, yielded one at a time from T down to 0.

    With ``one_array`` every level is written into a row of one array
    allocated up front.  Without it each level is an array of its own, so a
    caller that keeps only the last level holds one level's memory.
    """
    limit = params.cfl_safety * cfl_limit(prob, grid)
    dt_target = limit if params.dt is None else params.dt
    if not dt_target > 0:  # also NaN
        raise CflViolationError(f"dt must be positive, got {dt_target}")
    if dt_target > limit * (1 + 1e-12):
        raise CflViolationError(
            f"dt={dt_target:.4g} violates the CFL bound {limit:.4g} "
            f"(= cfl_safety * {cfl_limit(prob, grid):.4g})"
        )
    n_steps = max(1, math.ceil(prob.T / dt_target - 1e-12))
    dt = prob.T / n_steps

    def time(i):  # of level i; level 0 is at T exactly
        return prob.T if i == 0 else prob.T * (n_steps - i) / n_steps

    stepper = Stepper(prob, grid, params.game_tol)
    stepper.schedule(map(time, range(n_steps)))
    fld = terminal_field(prob, grid)
    if one_array:
        rows = np.empty((n_steps + 1,) + grid.shape)
        rows[0] = fld.values
        fld = ValueField._adopt(fld.t, rows[0])
    else:
        rows = [None] * (n_steps + 1)  # each step allocates its own level
    yield fld
    values = fld.values
    for i in range(n_steps):
        values = stepper.step(values, time(i), dt, params.hamiltonian_mode, out=rows[i + 1])
        fld = ValueField._adopt(time(i + 1), values)
        fld.check_bound(prob)
        yield fld


def window_mask(prob: Problem, grid: SpaceGrid) -> np.ndarray:
    """Boolean mask of grid nodes inside the interior measurement window."""
    lo, hi = interior_window(prob)
    meshes = np.meshgrid(*grid.axes, indexing="ij", sparse=True)
    return functools.reduce(np.logical_and, [(x >= lo[i] - 1e-12) & (x <= hi[i] + 1e-12)
                                             for i, x in enumerate(meshes)])


def discrete_lipschitz(values: np.ndarray, grid: SpaceGrid) -> float:
    """Max adjacent difference over spacing, across all axes."""
    out = 0.0
    for axis in range(grid.d):
        d = np.abs(np.diff(values, axis=axis)) / grid.h[axis]
        if d.size:
            out = max(out, float(d.max()))
    return out


@dataclass(frozen=True)
class GapReport:
    problem: str
    nx: tuple
    pure_gap: float
    mixed_vs_lower: float
    mixed_vs_upper: float

    def as_dict(self) -> dict:
        return {
            "problem": self.problem,
            "nx": list(self.nx),
            "pure_gap": self.pure_gap,
            "mixed_vs_lower": self.mixed_vs_lower,
            "mixed_vs_upper": self.mixed_vs_upper,
        }


def gap_report(prob: Problem, grid: SpaceGrid, params: SchemeParams) -> GapReport:
    """Sup-norm gaps at t=0 between the three solution modes.

    Measured on the interior window, where boundary truncation effects are
    excluded by the domain-of-dependence margin.  The report solves every
    mode itself, so a ``params.hamiltonian_mode`` other than "relaxed" is
    rejected.
    """
    if params.hamiltonian_mode != "relaxed":
        raise ValueError("gap_report ignores params.hamiltonian_mode: it solves every mode")
    fields = {}
    for mode in _MODES:
        for level in _levels(prob, grid, replace(params, hamiltonian_mode=mode)):
            fields[mode] = level.values
    mask = window_mask(prob, grid)
    sup = lambda a: float(np.max(np.abs(a[mask])))
    return GapReport(
        problem=prob.name,
        nx=grid.counts,
        pure_gap=sup(fields["pure_upper"] - fields["pure_lower"]),
        mixed_vs_lower=sup(fields["relaxed"] - fields["pure_lower"]),
        mixed_vs_upper=sup(fields["relaxed"] - fields["pure_upper"]),
    )
