"""Monotone explicit finite differences for the limiting HJBI equation.

The scheme discretizes, backward in time from the terminal cost,

    dV/dt + value{ 0.5 tr(sigma sigma^T A) + b.p + f(t,x,y,p.sigma,u,v) } = 0

where ``value`` is the mixed-strategy saddle value of the control matrix
(relaxed mode) or the pure sup-inf / inf-sup envelope (pure modes).  At
each node the per-(u,v) generator is applied to the current level with the
Kushner-Dupuis stencil: upwind first differences chosen by the sign of the
drift for that control pair, central second differences, and for d=2 the
sign-adapted 7-point cross stencil (which requires the diagonal dominance
that load_problem enforces).  Every matrix entry is then a monotone affine
map of the level, so the game value preserves monotonicity and the scheme
satisfies a discrete comparison principle under the CFL restriction

    dt * ( sum_i sup(sigma sigma^T)_ii / h_i^2
           + sum_i sup|b_i| / h_i + Lip_y(f) ) <= 1.

Boundary handling: ``clamp`` copies the nearest interior value after each
update (homogeneous Neumann), ``periodic`` wraps the stencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .games import GameError, solve_games
from .problem import Problem, interior_window, value_bound

__all__ = [
    "SpaceGrid",
    "ValueField",
    "SchemeParams",
    "CflViolationError",
    "NonFiniteFieldError",
    "cfl_limit",
    "terminal_field",
    "step_back",
    "solve",
    "gap_report",
    "GapReport",
    "window_mask",
    "discrete_lipschitz",
]

_TIME = frozenset(("t",))

_MODE_LABELS = {
    "relaxed": "V_mixed",
    "pure_lower": "V_lower_pure",
    "pure_upper": "V_upper_pure",
}


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
        return tuple(np.meshgrid(*self.axes, indexing="ij")) if self.d > 1 else (self.axes[0],)


@dataclass(frozen=True)
class ValueField:
    """Values of one labeled value function on the grid at one time."""

    t: float
    values: np.ndarray
    label: str = "V_mixed"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            node = tuple(int(i) for i in np.argwhere(~np.isfinite(vals))[0])
            raise NonFiniteFieldError(f"non-finite value at node {node} (t={self.t})")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def _adopt(cls, t: float, values: np.ndarray, label: str) -> "ValueField":
        """A field owning ``values``, a fresh finite array from :meth:`Stepper._finish`.

        It is made read-only in place, without the copy and the scan of the
        constructor, which :meth:`Stepper._finish` has already done.
        """
        values.flags.writeable = False
        field = object.__new__(cls)
        for name, value in (("t", t), ("values", values), ("label", label)):
            object.__setattr__(field, name, value)
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

    ``dt=None`` derives the step from the CFL limit.  ``game_tol`` bounds
    the certified duality gap of every relaxed local game.
    """

    dt: float | None = None
    hamiltonian_mode: str = "relaxed"
    game_tol: float = 1e-9
    cfl_safety: float = 0.9

    def __post_init__(self):
        if self.hamiltonian_mode not in _MODE_LABELS:
            raise ValueError(f"unknown hamiltonian_mode {self.hamiltonian_mode!r}")
        if not (0 < self.cfl_safety <= 1):
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.game_tol <= 0:
            raise ValueError("game_tol must be positive")


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


def terminal_field(prob: Problem, grid: SpaceGrid, label: str = "V_mixed") -> ValueField:
    x = np.stack(grid.meshes(), axis=-1)
    vals = np.broadcast_to(np.asarray(prob.terminal_cost(x), dtype=float), grid.shape)
    return ValueField(t=prob.T, values=np.array(vals), label=label)


# ---------------------------------------------------------------------------
# Stencil machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _StencilCoefficients:
    """Coefficients of one level's stencil, each in its own broadcast shape."""

    b: tuple
    sigma: tuple
    up: tuple  # max(b_i, 0), weight of the forward difference
    down: tuple  # max(-b_i, 0), weight of the backward difference
    half_a: tuple  # 0.5 (sigma sigma^T)_ii
    a01: object  # (sigma sigma^T)_01 for d=2, else None
    f: object  # f(y=0, z=0), or None when f depends on y or z


class Stepper:
    """Precomputed per-(grid, problem) stencil state.

    b, sigma and f(y=0, z=0) are evaluated on the work region for every
    control pair at once, each entry in its own broadcast shape.  An entry
    that names t is evaluated once per level (each :meth:`entries` call),
    any other once per Stepper; the stencil weights derived from an entry
    (upwind drift parts, 0.5 (sigma sigma^T)_ii, the cross term) are redone
    only when it is.  An f that names y or z is evaluated at every call,
    with the level and its upwind gradient.  The stencil reads one padded
    level, the level itself under clamp boundaries and its periodic cell
    wrapped by one node otherwise, so every neighbour is a slice of it.  Differences, stencil fields and partial
    sums are computed in place in work arrays the Stepper allocates on first
    use and then reuses; the generator accumulates in a fresh array, which
    :meth:`entries` returns and callers may keep.  So a step allocates no
    large temporaries besides that array and the new level.  The local
    games of a level are solved in one batch, each node starting from the
    kernel that certified it on the previous call.  Also used by the
    partition sweep, which freezes the per-node strategies over a
    subinterval and advances with :meth:`step_frozen`.
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
        self._f_needs_yz = prob.f_needs_yz
        self._coef = None  # the last _coefficients result, reused entry by entry
        self._kernels = None  # per-node kernel of the last relaxed game solve
        self._scratch = {}  # work arrays by name, reused across calls

    # -- stencil ------------------------------------------------------------

    def _array(self, name, shape):
        """The work array ``name`` of the given shape, allocated on first use."""
        arr = self._scratch.get(name)
        if arr is None or arr.shape != shape:
            arr = self._scratch[name] = np.empty(shape)
        return arr

    def _coefficients(self, t) -> _StencilCoefficients:
        """Stencil coefficients at t: only what derives from entries naming t is redone."""
        old = self._coef
        b, sig, f = self.prob._evaluate_entries(
            t, self._xw, self._iu, self._iv,
            None if old is None else (old.b, old.sigma, old.f), _TIME,
            with_f=not self._f_needs_yz,
        )
        if old is not None and b is old.b and sig is old.sigma and f is old.f:
            return old
        up, down, half_a = [], [], []
        for i in range(self.d):
            if old is not None and b[i] is old.b[i]:
                up.append(old.up[i])
                down.append(old.down[i])
            else:
                up.append(np.maximum(b[i], 0.0))
                down.append(np.maximum(-b[i], 0.0))
            row = sig[i]
            if old is not None and row is old.sigma[i]:
                half_a.append(old.half_a[i])
            else:
                half_a.append(0.5 * (row[0] * row[0] if self.d == 1
                                     else row[0] * row[0] + row[1] * row[1]))
        if self.d == 1:
            a01 = None
        elif old is not None and sig is old.sigma:
            a01 = old.a01
        else:
            a01 = sig[0][0] * sig[1][0] + sig[0][1] * sig[1][1]
        self._coef = _StencilCoefficients(b=b, sigma=sig, up=tuple(up), down=tuple(down),
                                          half_a=tuple(half_a), a01=a01, f=f)
        return self._coef

    def entries(self, values: np.ndarray, t: float) -> np.ndarray:
        """Per-(u,v) discrete generator applied to the level.

        Returns a fresh (m, k, *work) array; every [iu, iv] slice is a
        monotone affine function of the level under the CFL restriction.
        """
        d, h = self.d, self.h
        co = self._coefficients(t)
        pad = values if self.mode == "clamp" else np.pad(values[self._work], 1, mode="wrap")

        def at(*offsets):  # the padded level shifted by offsets, on the work region
            return pad[tuple(slice(1 + o, n - 1 + o) for o, n in zip(offsets, pad.shape))]

        c = at(*(0,) * d)
        two_c = np.multiply(2.0, c, out=self._array("two_c", c.shape))
        fwd, bwd, sec, axis_nb = [], [], [], []
        for i in range(d):
            ax = (slice(None),) * i
            # the work region extended by one node both ways along axis i
            line = pad[tuple(slice(None) if j == i else slice(1, -1) for j in range(d))]
            nxt, prv = line[ax + (slice(2, None),)], line[ax + (slice(None, -2),)]
            # forward and backward differences are two views of one array
            hi, lo = line[ax + (slice(1, None),)], line[ax + (slice(None, -1),)]
            first = np.subtract(hi, lo, out=self._array(f"first{i}", hi.shape))
            first /= h[i]
            fwd.append(first[ax + (slice(1, None),)])
            bwd.append(first[ax + (slice(None, -1),)])
            second = self._array(f"second{i}", c.shape)
            np.subtract(nxt, two_c, out=second)
            second += prv
            second /= h[i] ** 2
            sec.append(second)
            axis_nb += [nxt, prv]

        terms = [(co.half_a[i], sec[i]) for i in range(d)]
        if d == 2:
            # the 7-point cross stencil follows the sign of a01; build only
            # the variants whose sign occurs
            den = 2.0 * h[0] * h[1]

            def cross(name, diag, anti, negate):
                out = self._array(name, c.shape)
                np.add(two_c, diag, out=out)
                out += anti
                for nb in axis_nb:
                    out -= nb
                if negate:
                    np.negative(out, out=out)
                out /= den
                return out

            nonneg = np.asarray(co.a01) >= 0.0
            if nonneg.all():
                cr = cross("cross_pos", at(1, 1), at(-1, -1), False)
            elif not nonneg.any():
                cr = cross("cross_neg", at(1, -1), at(-1, 1), True)
            else:
                cr = self._array("cross", np.broadcast_shapes(nonneg.shape, c.shape))
                np.copyto(cr, cross("cross_neg", at(1, -1), at(-1, 1), True))
                np.copyto(cr, cross("cross_pos", at(1, 1), at(-1, -1), False), where=nonneg)
            terms.append((co.a01, cr))
        dshape = np.broadcast_shapes(*(s for a, x in terms for s in (np.shape(a), x.shape)))
        diffusion = self._array("diffusion", dshape)
        term = self._array("diffusion_term", dshape)
        np.multiply(terms[0][0], terms[0][1], out=diffusion)
        for a, x in terms[1:]:
            np.multiply(a, x, out=term)
            diffusion += term

        f = co.f
        if f is None:  # y is the level, z the upwind gradient times sigma
            p = [np.where(np.asarray(bi) >= 0.0, fw, bw) for bi, fw, bw in zip(co.b, fwd, bwd)]
            sig = co.sigma
            z = [p[0] * sig[0][j] if d == 1 else p[0] * sig[0][j] + p[1] * sig[1][j]
                 for j in range(d)]
            f = self.prob.running_cost(t, self._xw, self._iu, self._iv, c,
                                       np.stack(np.broadcast_arrays(*z), axis=-1))

        # the generator accumulates in the returned array, in the order of
        # ((up0 fwd0 - down0 bwd0) + up1 fwd1) - down1 bwd1, + diffusion, + f
        gen = np.empty((self.m, self.k) + self.work_shape)
        term = self._array("generator_term", gen.shape)
        np.multiply(co.up[0], fwd[0], out=gen)
        for i in range(d):
            if i:
                np.multiply(co.up[i], fwd[i], out=term)
                gen += term
            np.multiply(co.down[i], bwd[i], out=term)
            gen -= term
        gen += diffusion
        gen += f
        return gen

    # -- local games ---------------------------------------------------------

    def game_values(self, ent: np.ndarray, mode: str, t: float,
                    collect_strategies: bool = False):
        """Per-node saddle/envelope values of the generator matrices at time t."""
        work = ent.shape[2:]
        if mode == "relaxed" and not (self.m == 1 and self.k == 1):
            try:
                batch = solve_games(ent.reshape(self.m, self.k, -1), self.game_tol, self._kernels)
            except GameError as err:  # the simplex fallback gave up on one node
                first = 1 if self.mode == "clamp" else 0  # grid index of work node 0
                node = tuple(int(i) + first for i in np.unravel_index(err.node, work))
                raise GameError(f"local game at grid node {node} (t={t}): {err}",
                                node=err.node) from err
            self._kernels = batch.kernel
            vals = batch.value.reshape(work)
            if collect_strategies:
                return vals, batch.mu.reshape(work + (self.m,)), batch.nu.reshape(work + (self.k,))
            return vals, None, None

        if self.m == 1 and self.k == 1:
            vals = ent[0, 0]
        elif mode == "pure_lower":
            vals = np.min(ent, axis=1, out=self._array("envelope", (self.m,) + work)).max(axis=0)
        else:  # pure_upper
            vals = np.max(ent, axis=0, out=self._array("envelope", (self.k,) + work)).min(axis=0)
        if not collect_strategies:
            return vals, None, None
        # pure envelopes and singleton games select point-mass strategies;
        # ties break toward the lowest grid index
        mu = np.zeros(work + (self.m,))
        nu = np.zeros(work + (self.k,))
        if self.m == 1 and self.k == 1:
            mu[..., 0] = 1.0
            nu[..., 0] = 1.0
        elif mode == "pure_lower":
            iu = ent.min(axis=1).argmax(axis=0)
            iv = np.take_along_axis(ent, iu[None, None], axis=0)[0].argmin(axis=0)
            np.put_along_axis(mu, iu[..., None], 1.0, axis=-1)
            np.put_along_axis(nu, iv[..., None], 1.0, axis=-1)
        else:
            iv = ent.max(axis=0).argmin(axis=0)
            iu = np.take_along_axis(ent, iv[None, None], axis=1)[:, 0].argmax(axis=0)
            np.put_along_axis(mu, iu[..., None], 1.0, axis=-1)
            np.put_along_axis(nu, iv[..., None], 1.0, axis=-1)
        return vals, mu, nu

    # -- stepping -------------------------------------------------------------

    def _finish(self, values, vals, dt, t_new):
        """The next level: values + dt * vals on the work region, then the boundary."""
        new = np.array(values, dtype=float, copy=True)
        inc = np.multiply(dt, vals, out=self._array("increment", self.work_shape))
        np.add(values[self._work], inc, out=new[self._work])
        if self.mode == "clamp":
            if self.d == 1:
                new[0] = new[1]
                new[-1] = new[-2]
            else:
                new[0, :] = new[1, :]
                new[-1, :] = new[-2, :]
                new[:, 0] = new[:, 1]
                new[:, -1] = new[:, -2]
        else:
            if self.d == 1:
                new[-1] = new[0]
            else:
                new[-1, :-1] = new[0, :-1]
                new[:-1, -1] = new[:-1, 0]
                new[-1, -1] = new[0, 0]
        bad = ~np.isfinite(new)
        if bad.any():
            node = tuple(int(i) for i in np.argwhere(bad)[0])
            raise NonFiniteFieldError(f"non-finite value at node {node} (t={t_new})")
        return new

    def step(self, values, t, dt, mode, collect_strategies=False):
        """One explicit step from level t to t - dt."""
        ent = self.entries(values, t)
        vals, mu, nu = self.game_values(ent, mode, t, collect_strategies)
        new = self._finish(values, vals, dt, t - dt)
        return (new, mu, nu) if collect_strategies else (new, None, None)

    def step_frozen(self, values, t, dt, mu, nu):
        """One step under frozen per-node mixed strategies."""
        ent = self.entries(values, t)
        vals = np.einsum("mk...,...m,...k->...", ent, mu, nu)
        return self._finish(values, vals, dt, t - dt)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _resolve_dt(prob, grid, params):
    limit = params.cfl_safety * cfl_limit(prob, grid)
    dt = limit if params.dt is None else params.dt
    if dt < 0:
        raise CflViolationError("dt must be nonnegative")
    if dt > limit * (1 + 1e-12):
        raise CflViolationError(
            f"dt={dt:.4g} violates the CFL bound {limit:.4g} "
            f"(= cfl_safety * {cfl_limit(prob, grid):.4g})"
        )
    return dt


def step_back(field: ValueField, prob: Problem, grid: SpaceGrid,
              params: SchemeParams) -> ValueField:
    """One scheme step backward in time; requires params.dt."""
    if params.dt is None:
        raise CflViolationError("step_back requires an explicit params.dt")
    dt = _resolve_dt(prob, grid, params)
    stepper = Stepper(prob, grid, params.game_tol)
    new, _, _ = stepper.step(field.values, field.t, dt, params.hamiltonian_mode)
    return ValueField(t=field.t - dt, values=new, label=field.label)


def solve(prob: Problem, grid: SpaceGrid, params: SchemeParams) -> list:
    """Backward solve from T to 0; returns every level, newest first at T.

    The number of steps is chosen so the uniform dt is the largest value
    not exceeding params.dt (or the CFL-safety limit when dt is None).
    """
    dt_target = _resolve_dt(prob, grid, params)
    if dt_target <= 0:
        raise CflViolationError("cannot solve with dt=0")
    n_steps = max(1, math.ceil(prob.T / dt_target - 1e-12))
    dt = prob.T / n_steps
    label = _MODE_LABELS[params.hamiltonian_mode]
    stepper = Stepper(prob, grid, params.game_tol)
    levels = [terminal_field(prob, grid, label)]
    values = levels[0].values
    t = prob.T
    for step_idx in range(n_steps):
        values, _, _ = stepper.step(values, t, dt, params.hamiltonian_mode)
        t = prob.T * (n_steps - step_idx - 1) / n_steps
        fld = ValueField._adopt(t, values, label)
        fld.check_bound(prob)
        levels.append(fld)
    return levels


def window_mask(prob: Problem, grid: SpaceGrid) -> np.ndarray:
    """Boolean mask of grid nodes inside the interior measurement window."""
    lo, hi = interior_window(prob)
    masks = [(ax >= lo[i] - 1e-12) & (ax <= hi[i] + 1e-12) for i, ax in enumerate(grid.axes)]
    if grid.d == 1:
        return masks[0]
    return masks[0][:, None] & masks[1][None, :]


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
    excluded by the domain-of-dependence margin.
    """
    fields = {}
    for mode in ("relaxed", "pure_lower", "pure_upper"):
        levels = solve(prob, grid, replace(params, hamiltonian_mode=mode))
        fields[mode] = levels[-1].values
    mask = window_mask(prob, grid)
    sup = lambda a: float(np.max(np.abs(a[mask])))
    return GapReport(
        problem=prob.name,
        nx=grid.counts,
        pure_gap=sup(fields["pure_upper"] - fields["pure_lower"]),
        mixed_vs_lower=sup(fields["relaxed"] - fields["pure_lower"]),
        mixed_vs_upper=sup(fields["relaxed"] - fields["pure_upper"]),
    )
