"""Backward dynamic programming along a time partition.

The lower and upper values along a partition are produced by backward
induction: at the right endpoint of every subinterval the local matrix
game of discrete generators is solved once per node, and the resulting
per-node strategies are held frozen while the field is advanced across
the subinterval with monotone CFL-limited substeps.  One march does this
induction for any held strategies: the sweep's come from its local games,
and ``montecarlo.exploit`` holds a profile's weights, with or without a
best-responding free player.  The relaxed local game has a saddle point,
so the lower and upper sweeps share one canonical mixed solve and agree
bitwise; they differ only in the pure sweeps, where the sup-inf and
inf-sup envelopes expose the Isaacs gap.
In the control-free case the games are 1x1, and a sweep whose substeps
fall on the steps of a plain explicit solve reproduces it bitwise.

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
    _levels,
    cfl_limit,
    discrete_lipschitz,
    terminal_field,
    window_mask,
)
from .problem import Problem, time_modulus_bound

__all__ = [
    "Partition",
    "SweepResult",
    "dpp_sweep",
    "convergence_study",
]


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
        if not np.all(np.isfinite(t)):
            raise ValueError("partition times must be finite")
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
    substep_counts: tuple
    mu: np.ndarray | None = None  # (n_subintervals, *work, m) when recorded
    nu: np.ndarray | None = None

    @property
    def field_at_0(self) -> ValueField:
        return self.levels[-1]


def _check_horizon(prob: Problem, pi: Partition) -> None:
    if abs(pi.horizon - prob.T) > 1e-12:
        raise ValueError(f"partition horizon {pi.horizon} does not match problem T={prob.T}")


def _scheduled(prob, grid, pi, params):
    """(stepper, counts, substep_times) of a march along ``pi``, the stepper scheduled.

    Subinterval j gets the fewest equal substeps that meet the CFL limit scaled
    by ``params.cfl_safety``.  Entry j of ``substep_times`` is its substep length
    and the start times of its substeps, t_{j+1} first.
    """
    _check_horizon(prob, pi)
    limit = params.cfl_safety * cfl_limit(prob, grid)
    deltas = np.diff(pi.times)
    counts = [max(1, math.ceil(d / limit - 1e-12)) for d in deltas]
    substep_times = []
    for t_next, d, c in zip(pi.times[1:], deltas, counts):
        delta = d / c
        substep_times.append((delta, [t_next - s * delta for s in range(c)]))
    stepper = Stepper(prob, grid, params.game_tol)
    stepper.schedule([t for _, times in reversed(substep_times) for t in times])
    return stepper, counts, substep_times


def _march(stepper, values, substep_times, strategies):
    """Backward induction from the level ``values`` at T; yields (j, the level at t_j).

    ``strategies(j, ent)`` gives the (mu, nu) held over subinterval j, ``ent`` being the
    generator of the level at t_{j+1}.  Each substep is one :meth:`Stepper.step_frozen`.
    """
    for j in range(len(substep_times) - 1, -1, -1):
        delta, times = substep_times[j]
        ent = stepper.entries(values, times[0])
        mu, nu = strategies(j, ent)
        for s, t in enumerate(times):
            if s:  # the first substep steps on the entries the strategies were chosen on
                ent = stepper.entries(values, t)
            values = stepper.step_frozen(values, ent, t, delta, mu, nu)
        yield j, values


def dpp_sweep(prob: Problem, grid: SpaceGrid, pi: Partition, params: SchemeParams,
              orientation: str = "lower", pure: bool = False,
              record_strategies: bool = False) -> SweepResult:
    """Backward induction over the partition.

    ``orientation`` ("lower" or "upper") matters only with ``pure=True``:
    a relaxed sweep solves every local game as one mixed saddle, so its
    lower and upper sweeps are bitwise equal.  With ``pure=True`` the per-node
    strategies are the pure sup-inf (lower) or inf-sup (upper) envelope
    selections instead (no mixing), which exhibits the Isaacs gap.

    Each subinterval is divided into the fewest equal substeps that meet
    the CFL limit scaled by ``params.cfl_safety``; ``substep_counts`` of the
    result records them.  ``params.dt`` and a non-relaxed
    ``params.hamiltonian_mode`` are rejected: ``cfl_safety``, ``pure`` and
    ``orientation`` set those here.
    """
    if orientation not in ("lower", "upper"):
        raise ValueError(f"orientation must be 'lower' or 'upper', got {orientation!r}")
    if params.hamiltonian_mode != "relaxed":
        raise ValueError("dpp_sweep ignores params.hamiltonian_mode: set pure= and orientation")
    if params.dt is not None:
        raise ValueError("dpp_sweep ignores params.dt: params.cfl_safety sets the substeps")
    stepper, counts, substep_times = _scheduled(prob, grid, pi, params)
    mode = "relaxed" if not pure else ("pure_lower" if orientation == "lower" else "pure_upper")
    mu_all, nu_all = [], []

    def local_games(j, ent):
        _, mu, nu = stepper.game_values(ent, mode, pi.times[j + 1], collect_strategies=True)
        if record_strategies:
            mu_all.append(mu)
            nu_all.append(nu)
        return mu, nu

    levels = [terminal_field(prob, grid)]
    for j, values in _march(stepper, levels[0].values, substep_times, local_games):
        fld = ValueField._adopt(pi.times[j], values)
        fld.check_bound(prob)
        levels.append(fld)
    # recorded in forward time order: entry j covers [t_j, t_{j+1})
    mu_arr, nu_arr = (np.stack(held[::-1]) if record_strategies else None
                      for held in (mu_all, nu_all))
    return SweepResult(levels=tuple(levels), partition=pi, substep_counts=tuple(counts),
                       mu=mu_arr, nu=nu_arr)


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------


def convergence_study(prob: Problem, grid: SpaceGrid, meshes, params: SchemeParams):
    """Compare partition sweeps against the fine-stepped PDE solution.

    Each sweep uses the default substep rule (subdivide every subinterval
    until the sub-time-step meets the CFL limit), so on a grid whose
    stability limit exceeds the coarsest mesh the sweep resolves time
    exactly at the partition scale and the gaps expose the per-step
    consistency error of the partition scheme.  The reference solve steps
    well below the finest tested mesh.  Returns one row per mesh with
    interior-window and full-grid sup gaps, the empirical time modulus and
    the discrete space Lipschitz constant.  One relaxed sweep serves both
    orientations, which are bitwise equal: ``sup_u_minus_v`` repeats
    ``sup_w_minus_v``, and the lower/upper coincidence gap
    ``sup_w_minus_u`` is 0 by construction.
    """
    meshes = [int(n) for n in meshes]
    if any(n < 1 for n in meshes):
        raise ValueError("mesh counts must be positive")
    fine_dt = min(params.cfl_safety * cfl_limit(prob, grid), prob.T / (8.0 * max(meshes)))

    for level in _levels(prob, grid, SchemeParams(dt=fine_dt, game_tol=params.game_tol,
                                                  cfl_safety=params.cfl_safety)):
        v0 = level.values
    mask = window_mask(prob, grid)
    modulus_cap = time_modulus_bound(prob)

    rows = []
    for n in meshes:
        pi = Partition.uniform(prob.T, n)
        res_w = dpp_sweep(prob, grid, pi, params, "lower")
        w0 = res_w.field_at_0.values
        sup_w_minus_v = float(np.max(np.abs(w0 - v0)[mask]))
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
            "sup_w_minus_v": sup_w_minus_v,
            "sup_u_minus_v": sup_w_minus_v,
            "sup_w_minus_v_full": float(np.max(np.abs(w0 - v0))),
            "sup_w_minus_u": 0.0,
            "time_modulus": modulus,
            "time_modulus_bound": modulus_cap,
            "space_lipschitz": lip,
        })
    return rows
