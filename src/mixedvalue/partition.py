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

What W_pi is, and what it is not: the strategies are frozen per *node*,
so inside a subinterval a moving state meets the strategy of whichever
node it reaches (state feedback), and the field advances by the relaxed
expectation of the generator rather than under one drawn control pair.
The paper's W^pi holds one randomized control pair over the whole
subinterval whatever the state does, and that delay is invisible here.
On the 3x3 drift-and-cost game ``drift_cost3`` at nx = 201, W_pi(0, 0) is
nearly flat in |pi|: 0.80387 / 0.80397 / 0.80397 at n = 4 / 16 / 64,
while Monte Carlo with the sweep's saddle controls held on each
subinterval moves from 0.7559 at n = 4 to 0.8114 at n = 64 (200k paths,
standard error about 0.0008).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    "MeshTooCoarseError",
    "SweepResult",
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


def _substep_times(pi, counts) -> list:
    """Per subinterval j: its substep length and the times its substeps start at, t_{j+1} first."""
    out = []
    for j, count in enumerate(counts):
        delta = (pi.times[j + 1] - pi.times[j]) / count
        out.append((delta, [pi.times[j + 1] - s * delta for s in range(count)]))
    return out


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
    substeps = _substep_times(pi, counts)
    stepper.schedule([t for _, times in reversed(substeps) for t in times])
    levels = [terminal_field(prob, grid, label)]
    values = levels[0].values
    mu_all = [] if record_strategies else None
    nu_all = [] if record_strategies else None
    for j in range(pi.n - 1, -1, -1):
        delta, times = substeps[j]
        ent = stepper.entries(values, times[0])
        _, mu, nu = stepper.game_values(ent, mode, times[0], collect_strategies=True)
        if record_strategies:
            mu_all.append(mu)
            nu_all.append(nu)
        for t in times:
            values = stepper.step_frozen(values, t, delta, mu, nu)
        fld = ValueField._adopt(pi.times[j], values, label)
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
