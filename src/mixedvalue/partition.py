"""Backward dynamic programming along a time partition.

The lower and upper values along a partition are produced by backward
induction: at the right endpoint of every subinterval the local matrix
game of discrete generators is solved once per node, and the resulting
per-node strategies are held frozen while the field is advanced across
the subinterval with monotone CFL-limited substeps.  The relaxed local
game has a saddle point, so the lower and upper sweeps share one
canonical mixed solve and agree bitwise; they differ only in the pure
sweeps, where the sup-inf and inf-sup envelopes expose the Isaacs gap.
In the control-free case the games are 1x1 and a sweep reproduces the
plain explicit scheme step for step when the substeps align.

Strategy freezing is the partition-scheme counterpart of holding the
randomized controls fixed on each subinterval; refining the partition
lets the strategies track the field more closely, which is what the
convergence study measures against the fine-stepped PDE solution.

``local_ode_step`` is the pointwise building block: with gradient,
Hessian and field value frozen at one node it integrates the scalar
backward equation dY/ds = -F0(s, x, Y, 0), Y(t_j) = 0, where F0 is the
local game value; a subinterval update with a single substep is exactly
``field + local_ode_step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import pure_minimax, solve_games
from .hamiltonian import HamiltonianPoint, payoff_matrix
from .pde import (
    SchemeParams,
    SpaceGrid,
    Stepper,
    ValueField,
    cfl_limit,
    discrete_lipschitz,
    solve,
    terminal_field,
    window_mask,
)
from .problem import Problem, time_modulus_bound

__all__ = [
    "Partition",
    "LocalGameSpec",
    "MeshTooCoarseError",
    "SweepResult",
    "local_ode_step",
    "dpp_sweep",
    "convergence_study",
]


class MeshTooCoarseError(ValueError):
    pass


@dataclass(frozen=True)
class Partition:
    """Ordered time points 0 = t_0 < ... < t_n = T."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("a partition needs at least two time points")
        if t[0] != 0.0:
            raise ValueError("partition must start at exactly 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("partition times must be strictly increasing")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "times", t)

    @classmethod
    def uniform(cls, horizon: float, n: int) -> "Partition":
        if n < 1:
            raise ValueError("need at least one subinterval")
        return cls(np.linspace(0.0, horizon, n + 1))

    @property
    def n(self) -> int:
        return self.times.size - 1

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.times)))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True)
class LocalGameSpec:
    """Frozen data for the scalar backward equation at one node."""

    t_start: float
    t_end: float
    x: np.ndarray
    p: np.ndarray
    A: np.ndarray
    field_value: float
    substeps: int = 1
    y0: float = 0.0

    def __post_init__(self):
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        if not self.t_end > self.t_start:
            raise ValueError("need t_end > t_start")
        for arr in (self.x, self.p, self.A):
            if not np.all(np.isfinite(np.asarray(arr, dtype=float))):
                raise ValueError("local game data must be finite")


def local_ode_step(spec: LocalGameSpec, prob: Problem, params: SchemeParams) -> float:
    """Integrate dY/ds = -F0(s, x, Y, 0) from t_end down to t_start.

    F0 at each explicit Euler substep is the local game value of the
    matrix with entries

        0.5 tr(sigma sigma^T A) + b.p + f(s, x, y + field_value, p.sigma, u, v),

    solved per ``params.hamiltonian_mode``.  With a constant right-hand
    side the result is exact for any substep count.
    """
    delta = (spec.t_end - spec.t_start) / spec.substeps
    y = spec.y0
    s = spec.t_end
    for _ in range(spec.substeps):
        pt = HamiltonianPoint(t=s, x=spec.x, y=y + spec.field_value, p=spec.p, A=spec.A)
        mat = payoff_matrix(pt, prob)
        if params.hamiltonian_mode == "pure_lower":
            f0 = pure_minimax(mat)[0]
        elif params.hamiltonian_mode == "pure_upper":
            f0 = pure_minimax(mat)[1]
        else:
            f0 = solve_games(mat.entries[:, :, None], params.game_tol).value[0]
        y = y + delta * f0
        s = s - delta
    return float(y)


@dataclass(frozen=True)
class SweepResult:
    """All levels of one backward sweep, ordered from T down to 0."""

    levels: tuple
    partition: Partition
    orientation: str
    substep_counts: tuple
    mu: np.ndarray | None = None  # (n_subintervals, *work, m) when recorded
    nu: np.ndarray | None = None

    @property
    def field_at_0(self) -> ValueField:
        return self.levels[-1]


def _substep_counts(prob, grid, pi, params, substeps):
    limit = params.cfl_safety * cfl_limit(prob, grid)
    deltas = np.diff(pi.times)
    if substeps is None:
        counts = [max(1, math.ceil(d / limit - 1e-12)) for d in deltas]
    elif np.isscalar(substeps):
        counts = [int(substeps)] * len(deltas)
    else:
        counts = [int(c) for c in substeps]
        if len(counts) != len(deltas):
            raise ValueError("substeps list must match the number of subintervals")
    for d, c in zip(deltas, counts):
        if c < 1:
            raise ValueError("substeps must be >= 1")
        if d / c > limit * (1 + 1e-12):
            raise MeshTooCoarseError(
                f"subinterval of length {d:.4g} with {c} substeps gives "
                f"sub-time-step {d / c:.4g} above the stability limit {limit:.4g}; "
                "refine the partition or raise the substep count"
            )
    return counts


def dpp_sweep(prob: Problem, grid: SpaceGrid, pi: Partition, params: SchemeParams,
              orientation: str = "lower", substeps=None, pure: bool = False,
              record_strategies: bool = False) -> SweepResult:
    """Backward induction over the partition.

    ``orientation="lower"`` labels the result W_pi and ``"upper"`` labels
    it U_pi.  Both solve every local game as one mixed saddle, so the two
    relaxed sweeps are bitwise equal.  With ``pure=True`` the per-node
    strategies are the pure sup-inf (lower) or inf-sup (upper) envelope
    selections instead (no mixing), which exhibits the Isaacs gap.

    ``substeps`` fixes the per-subinterval substep count (scalar or list);
    by default each subinterval is divided until the sub-time-step meets
    the CFL limit.  A fixed count that misses the limit raises
    :class:`MeshTooCoarseError`.
    """
    if orientation not in ("lower", "upper"):
        raise ValueError(f"orientation must be 'lower' or 'upper', got {orientation!r}")
    if abs(pi.horizon - prob.T) > 1e-12:
        raise ValueError(f"partition horizon {pi.horizon} does not match problem T={prob.T}")
    counts = _substep_counts(prob, grid, pi, params, substeps)
    label = ("W_pi", "U_pi")[orientation == "upper"]
    mode = "relaxed" if not pure else ("pure_lower" if orientation == "lower" else "pure_upper")

    stepper = Stepper(prob, grid, params.game_tol)
    levels = [terminal_field(prob, grid, label)]
    values = levels[0].values
    mu_all = [] if record_strategies else None
    nu_all = [] if record_strategies else None
    times = pi.times
    for j in range(pi.n, 0, -1):
        t_right, t_left = times[j], times[j - 1]
        m_sub = counts[j - 1]
        delta = (t_right - t_left) / m_sub
        ent = stepper.entries(values, t_right)
        _, mu, nu = stepper.game_values(ent, mode, t_right, collect_strategies=True)
        if record_strategies:
            mu_all.append(mu)
            nu_all.append(nu)
        t = t_right
        for s in range(m_sub):
            values = stepper.step_frozen(values, t, delta, mu, nu)
            t = t_right - (s + 1) * delta
        fld = ValueField._adopt(t_left, values, label)
        fld.check_bound(prob)
        levels.append(fld)
    if record_strategies:
        # stored in forward time order: entry j covers [t_j, t_{j+1})
        mu_arr = np.stack(mu_all[::-1])
        nu_arr = np.stack(nu_all[::-1])
    else:
        mu_arr = nu_arr = None
    return SweepResult(
        levels=tuple(levels),
        partition=pi,
        orientation=orientation,
        substep_counts=tuple(counts),
        mu=mu_arr,
        nu=nu_arr,
    )


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------


def convergence_study(prob: Problem, grid: SpaceGrid, meshes, params: SchemeParams,
                      fine_dt: float | None = None):
    """Compare partition sweeps against the fine-stepped PDE solution.

    Each sweep uses the default substep rule (subdivide every subinterval
    until the sub-time-step meets the CFL limit), so on a grid whose
    stability limit exceeds the coarsest mesh the sweep resolves time
    exactly at the partition scale and the gaps expose the per-step
    consistency error of the partition scheme.  The reference solve runs
    at ``fine_dt`` (by default well below the finest tested mesh).
    Returns one row per mesh with interior-window and full-grid sup gaps,
    the lower/upper coincidence gap, the empirical time modulus and the
    discrete space Lipschitz constant.
    """
    meshes = [int(n) for n in meshes]
    if any(n < 1 for n in meshes):
        raise ValueError("mesh counts must be positive")
    limit = params.cfl_safety * cfl_limit(prob, grid)
    if fine_dt is None:
        fine_dt = min(limit, prob.T / (8.0 * max(meshes)))

    v_levels = solve(prob, grid, SchemeParams(
        dt=fine_dt,
        hamiltonian_mode="relaxed",
        game_tol=params.game_tol,
        cfl_safety=params.cfl_safety,
    ))
    v0 = v_levels[-1].values
    mask = window_mask(prob, grid)
    modulus_cap = time_modulus_bound(prob)

    rows = []
    for n in meshes:
        pi = Partition.uniform(prob.T, n)
        res_w = dpp_sweep(prob, grid, pi, params, "lower")
        res_u = dpp_sweep(prob, grid, pi, params, "upper")
        w0 = res_w.field_at_0.values
        u0 = res_u.field_at_0.values
        wu = max(
            float(np.max(np.abs(lw.values - lu.values)))
            for lw, lu in zip(res_w.levels, res_u.levels)
        )
        # time modulus on the interior window: the clamped boundary takes an
        # O(h) adjustment on the first step, a truncation artifact that the
        # measurement window exists to exclude
        diffs = [
            np.max(np.abs(res_w.levels[i].values - res_w.levels[i + 1].values)[mask])
            for i in range(len(res_w.levels) - 1)
        ]
        dt_j = np.diff(pi.times)[::-1]
        modulus = float(max(d / math.sqrt(dtj) for d, dtj in zip(diffs, dt_j)))
        lip = max(discrete_lipschitz(lv.values, grid) for lv in res_w.levels)
        rows.append({
            "n": n,
            "mesh": prob.T / n,
            "substeps": max(res_w.substep_counts),
            "sup_w_minus_v": float(np.max(np.abs(w0 - v0)[mask])),
            "sup_u_minus_v": float(np.max(np.abs(u0 - v0)[mask])),
            "sup_w_minus_v_full": float(np.max(np.abs(w0 - v0))),
            "sup_w_minus_u": wu,
            "time_modulus": modulus,
            "time_modulus_bound": modulus_cap,
            "space_lipschitz": lip,
        })
    return rows
