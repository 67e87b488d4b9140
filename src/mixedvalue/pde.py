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

from . import dsl
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


class Stepper:
    """Precomputed per-(grid, problem) stencil state.

    Each call of :meth:`entries` evaluates b, sigma and f once for all
    control pairs and work nodes together, every coefficient in its own
    broadcast shape; the per-step work is then a handful of vectorized
    array operations plus one batched solve of the local games, which
    starts each node from the kernel that certified it on the previous
    call.  Also used by the partition sweep, which freezes the per-node
    strategies over a subinterval and advances with :meth:`step_frozen`.
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

        axes = grid.axes
        if self.mode == "clamp":
            work_axes = tuple(ax[1:-1] for ax in axes)
        else:
            work_axes = tuple(ax[:-1] for ax in axes)
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
        # b, sigma and f(y=0, z=0) on the work region, kept across calls
        # while no coefficient depends on t
        exprs = (*prob.b, *(e for row in prob.sigma for e in row), prob.f)
        self._coef_needs_t = any("t" in dsl.free_variables(e) for e in exprs)
        self._coef = None
        self._kernels = None  # per-node kernel of the last relaxed game solve

    # -- stencil ------------------------------------------------------------

    def _neighbors(self, values):
        """Center and shifted views of the level on the work region."""
        if self.mode == "clamp":
            if self.d == 1:
                return {
                    "c": values[1:-1],
                    "p0": values[2:],
                    "m0": values[:-2],
                }
            return {
                "c": values[1:-1, 1:-1],
                "p0": values[2:, 1:-1],
                "m0": values[:-2, 1:-1],
                "p1": values[1:-1, 2:],
                "m1": values[1:-1, :-2],
                "pp": values[2:, 2:],
                "mm": values[:-2, :-2],
                "pm": values[2:, :-2],
                "mp": values[:-2, 2:],
            }
        red = values[:-1] if self.d == 1 else values[:-1, :-1]
        if self.d == 1:
            return {
                "c": red,
                "p0": np.roll(red, -1),
                "m0": np.roll(red, 1),
            }
        return {
            "c": red,
            "p0": np.roll(red, -1, axis=0),
            "m0": np.roll(red, 1, axis=0),
            "p1": np.roll(red, -1, axis=1),
            "m1": np.roll(red, 1, axis=1),
            "pp": np.roll(red, (-1, -1), axis=(0, 1)),
            "mm": np.roll(red, (1, 1), axis=(0, 1)),
            "pm": np.roll(red, (-1, 1), axis=(0, 1)),
            "mp": np.roll(red, (1, -1), axis=(0, 1)),
        }

    def entries(self, values: np.ndarray, t: float) -> np.ndarray:
        """Per-(u,v) discrete generator applied to the level.

        Returns an (m, k, *work) array; every [iu, iv] slice is a monotone
        affine function of the level under the CFL restriction.
        """
        nb = self._neighbors(values)
        c = nb["c"]
        h = self.h
        prob, xw, iu, iv = self.prob, self._xw, self._iu, self._iv
        if self._coef is None or self._coef_needs_t:
            b, sig = prob.coefficients(t, xw, iu, iv)
            self._coef = b, sig, None if self._f_needs_yz else prob.running_cost(t, xw, iu, iv)
        b, sig, fval = self._coef
        if self.d == 1:
            fwd = (nb["p0"] - c) / h[0]
            bwd = (c - nb["m0"]) / h[0]
            second = (nb["p0"] - 2.0 * c + nb["m0"]) / h[0] ** 2
            a00 = sig[0][0] * sig[0][0]
            drift = np.maximum(b[0], 0.0) * fwd - np.maximum(-b[0], 0.0) * bwd
            diff = 0.5 * a00 * second
            if self._f_needs_yz:
                pup = np.where(np.asarray(b[0]) >= 0.0, fwd, bwd)
                fval = prob.running_cost(t, xw, iu, iv, c, (pup * sig[0][0])[..., None])
        else:
            fwd0 = (nb["p0"] - c) / h[0]
            bwd0 = (c - nb["m0"]) / h[0]
            fwd1 = (nb["p1"] - c) / h[1]
            bwd1 = (c - nb["m1"]) / h[1]
            sec0 = (nb["p0"] - 2.0 * c + nb["m0"]) / h[0] ** 2
            sec1 = (nb["p1"] - 2.0 * c + nb["m1"]) / h[1] ** 2
            a00 = sig[0][0] * sig[0][0] + sig[0][1] * sig[0][1]
            a01 = sig[0][0] * sig[1][0] + sig[0][1] * sig[1][1]
            a11 = sig[1][0] * sig[1][0] + sig[1][1] * sig[1][1]
            cross_pos = (
                2.0 * c + nb["pp"] + nb["mm"] - nb["p0"] - nb["m0"] - nb["p1"] - nb["m1"]
            ) / (2.0 * h[0] * h[1])
            cross_neg = -(
                2.0 * c + nb["pm"] + nb["mp"] - nb["p0"] - nb["m0"] - nb["p1"] - nb["m1"]
            ) / (2.0 * h[0] * h[1])
            cross = np.where(np.asarray(a01) >= 0.0, cross_pos, cross_neg)
            drift = (
                np.maximum(b[0], 0.0) * fwd0
                - np.maximum(-b[0], 0.0) * bwd0
                + np.maximum(b[1], 0.0) * fwd1
                - np.maximum(-b[1], 0.0) * bwd1
            )
            diff = 0.5 * a00 * sec0 + 0.5 * a11 * sec1 + a01 * cross
            if self._f_needs_yz:
                p0 = np.where(np.asarray(b[0]) >= 0.0, fwd0, bwd0)
                p1 = np.where(np.asarray(b[1]) >= 0.0, fwd1, bwd1)
                z = np.broadcast_arrays(p0 * sig[0][0] + p1 * sig[1][0],
                                        p0 * sig[0][1] + p1 * sig[1][1])
                fval = prob.running_cost(t, xw, iu, iv, c, np.stack(z, axis=-1))
        ent = diff + drift + fval
        return np.ascontiguousarray(np.broadcast_to(ent, (self.m, self.k) + self.work_shape))

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
            vals = ent.min(axis=1).max(axis=0)
        else:  # pure_upper
            vals = ent.max(axis=0).min(axis=0)
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

    def _finish(self, values, new_work, t_new):
        new = np.array(values, dtype=float, copy=True)
        if self.mode == "clamp":
            if self.d == 1:
                new[1:-1] = new_work
                new[0] = new[1]
                new[-1] = new[-2]
            else:
                new[1:-1, 1:-1] = new_work
                new[0, :] = new[1, :]
                new[-1, :] = new[-2, :]
                new[:, 0] = new[:, 1]
                new[:, -1] = new[:, -2]
        else:
            if self.d == 1:
                new[:-1] = new_work
                new[-1] = new[0]
            else:
                new[:-1, :-1] = new_work
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
        nb = self._neighbors(values)
        new = self._finish(values, nb["c"] + dt * vals, t - dt)
        return (new, mu, nu) if collect_strategies else (new, None, None)

    def step_frozen(self, values, t, dt, mu, nu):
        """One step under frozen per-node mixed strategies."""
        ent = self.entries(values, t)
        vals = np.einsum("mk...,...m,...k->...", ent, mu, nu)
        nb = self._neighbors(values)
        return self._finish(values, nb["c"] + dt * vals, t - dt)


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
        fld = ValueField(t=t, values=values, label=label)
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
