"""Monte Carlo simulation of the game with randomized controls.

Controls are piecewise constant along the partition: at the left endpoint
of every subinterval each player draws a control from their mixed strategy
using a private randomization stream, the two draws being independent of
each other and of the driving Brownian increments.  The state then follows
Euler-Maruyama substeps with the frozen control pair.  Only the states
at the partition times are kept, since a player's draw on [t_{j-1}, t_j)
sees nothing but the state at t_{j-1}.

Streams come from a counter-based generator (Philox) keyed by the master
seed with the counter encoding (role, subinterval); within a stream, path
``i`` owns a fixed-size block at offset ``i``, so any slice of paths can be
regenerated bitwise by advancing the counter, independently of how work is
scheduled.  ``simulate`` uses this to run paths in fixed-size chunks, each
at its own path offset (``first_path`` is the offset of the first path):
its results equal those of one chunk bitwise, and its memory is
O(paths x subintervals) whatever the number of Euler substeps.  Normals are
produced from uniforms by Box-Muller so every path consumes a deterministic
number of raw draws (ziggurat sampling would not).

The chunks run on up to ``_WORKERS`` threads, one per usable core (numpy's
Philox fill and ufuncs release the GIL).  ``_CHUNK_PATHS`` bounds the paths
in flight in total: each of the W workers takes chunks of
ceil(``_CHUNK_PATHS`` / W) paths, so the results stay bitwise those of one
chunk at any W.

``estimate`` gives the payoff estimate without keeping the ensemble: it
passes one chunk of paths at a time through ``simulate`` and keeps one
payoff per path, so its memory is O(paths) plus the chunks in flight.  Its
mean and standard error are bitwise those of ``estimate_payoff`` on the
whole ensemble.

Since both controls are frozen on a subinterval, the b, sigma and f entries
are evaluated for the drawn pairs once per subinterval (and chunk), and
again at every Euler substep only where they name t or a state component.

Exploitability is not sampled: ``exploit`` values a profile and a best
response on the finite-difference scheme's own Markov chain, and only its
``baseline`` payoff is a Monte Carlo estimate.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .pde import SchemeParams, SpaceGrid, terminal_field
from .partition import Partition, SweepResult, _check_horizon, _march, _scheduled
from .problem import Problem, stack_entries

__all__ = [
    "RandomizationDevice",
    "StrategyProfile",
    "PathEnsemble",
    "PayoffEstimate",
    "ExploitResult",
    "simulate",
    "estimate",
    "estimate_payoff",
    "exploit",
]

_ROLE_BROWNIAN = 0
_ROLE_PLAYER1 = 1
_ROLE_PLAYER2 = 2
_ROLE_EXPLORE = 3

# paths in flight at once, over all workers; bounds the per-substep work arrays
_CHUNK_PATHS = 1 << 14
# threads running chunks: the usable cores
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class RandomizationDevice:
    """Reproducible independent randomization streams.

    Distinct (role, subinterval) indices select statistically independent
    Philox streams; distinct path indices address disjoint blocks within a
    stream.  Everything is reproducible from (master seed, indices) alone.
    The seed is the Philox key, an int in [0, 2**128).
    """

    def __init__(self, seed: int):
        if not (_is_int(seed) and 0 <= seed < 2**128):
            raise ValueError(f"seed must be an int in [0, 2**128), got {seed!r}")
        self.seed = int(seed)

    def _raw_blocks(self, role: int, subinterval: int, block_start: int,
                    n_paths: int, blocks_per_path: int) -> np.ndarray:
        """(n_paths, 4*blocks_per_path) raw uniforms, path-addressable.

        Philox advances in counter blocks of 4 draws, so per-path strides
        are whole blocks and ``advance`` lands exactly on a path boundary.
        """
        bg = Philox(key=self.seed, counter=[0, 0, role, subinterval])
        if block_start:
            bg.advance(block_start * blocks_per_path)
        raw = Generator(bg).random(n_paths * blocks_per_path * 4)
        return raw.reshape(n_paths, blocks_per_path * 4)

    def control_uniforms(self, subinterval: int, player: int, path_start: int,
                         n_paths: int) -> np.ndarray:
        """One uniform per path for the given player's control draw."""
        if player not in (1, 2):
            raise ValueError("player must be 1 or 2")
        role = _ROLE_PLAYER1 if player == 1 else _ROLE_PLAYER2
        # a copy, so the other three words of every block are freed at once
        return self._raw_blocks(role, subinterval, path_start, n_paths, 1)[:, 0].copy()

    def brownian_normals(self, subinterval: int, path_start: int, n_paths: int,
                         substeps: int, d: int) -> np.ndarray:
        """Standard normals of shape (n_paths, substeps, d), Box-Muller.

        Each path consumes a fixed number of whole counter blocks, so path
        slices are bitwise independent of batching.
        """
        per_path = substeps * d
        blocks = (per_path + 3) // 4
        raw = self._raw_blocks(_ROLE_BROWNIAN, subinterval, path_start, n_paths, blocks)
        z = _box_muller(raw)[:, :per_path]
        return z.reshape(n_paths, substeps, d)

    def exploration_normals(self, subinterval: int, n_samples: int,
                            substeps: int, d: int) -> np.ndarray:
        """Common-random-number normals, shape (n_samples, substeps, d).

        Nothing in the package draws them since :func:`exploit` moved to
        the grid; the benchmark harness (``bench/tracing.py``) wraps this
        method by name, so it stays.
        """
        per = substeps * d
        blocks = (per + 3) // 4
        raw = self._raw_blocks(_ROLE_EXPLORE, subinterval, 0, n_samples, blocks)
        z = _box_muller(raw)[:, :per]
        return z.reshape(n_samples, substeps, d)


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Pairs of uniforms to pairs of normals in place, fixed consumption.

    Each pair (u1, u2) becomes (r cos theta, r sin theta) with
    r = sqrt(-2 log u1), u1 clipped to [1e-300, 1], and theta = 2 pi u2.
    """
    r = np.clip(u[..., 0::2], 1e-300, 1.0)
    theta = np.multiply(u[..., 1::2], 2.0 * np.pi)
    np.log(r, out=r)
    np.multiply(r, -2.0, out=r)
    np.sqrt(r, out=r)
    np.multiply(r, np.cos(theta), out=u[..., 0::2])
    np.sin(theta, out=theta)
    np.multiply(r, theta, out=u[..., 1::2])
    return u


# ---------------------------------------------------------------------------
# Strategy profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyProfile:
    """Per-subinterval mixed strategies for both players.

    ``openloop`` weights have shape (n_subintervals, n_controls); in
    ``feedback`` mode they are (n_subintervals, n_cells, n_controls) and
    the cell is located from the state at the subinterval's left endpoint
    (cells are nearest-node regions of ``cell_axis``; d=1 only).
    """

    mode: str
    u_weights: np.ndarray
    v_weights: np.ndarray
    cell_axis: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("openloop", "feedback"):
            raise ValueError(f"unknown profile mode {self.mode!r}")
        uw = np.asarray(self.u_weights, dtype=float)
        vw = np.asarray(self.v_weights, dtype=float)
        want = 2 if self.mode == "openloop" else 3
        if uw.ndim != want or vw.ndim != want:
            raise ValueError(f"{self.mode} weights must be {want}-d arrays")
        if uw.shape[:-1] != vw.shape[:-1]:
            raise ValueError("player weight shapes disagree")
        for w, who in ((uw, "u"), (vw, "v")):
            # every comparison with NaN is false: finiteness is checked first
            if (not np.all(np.isfinite(w)) or np.any(w < -1e-12)
                    or np.any(np.abs(w.sum(axis=-1) - 1.0) > 1e-9)):
                raise ValueError(f"{who} weights must be probability vectors")
        if self.mode == "feedback":
            if self.cell_axis is None:
                raise ValueError("feedback profiles need a cell_axis")
            ax = np.asarray(self.cell_axis, dtype=float)
            if ax.ndim != 1 or ax.size != uw.shape[1]:
                raise ValueError("cell_axis must match the cell dimension of the weights")
            if not (np.all(np.isfinite(ax)) and np.all(np.diff(ax) > 0.0)):
                raise ValueError("cell_axis must be finite and strictly increasing")
            object.__setattr__(self, "cell_axis", ax)
        object.__setattr__(self, "u_weights", uw)
        object.__setattr__(self, "v_weights", vw)

    @property
    def n_subintervals(self) -> int:
        return self.u_weights.shape[0]

    @classmethod
    def uniform(cls, prob: Problem, n_subintervals: int) -> "StrategyProfile":
        uw = np.full((n_subintervals, prob.u_grid.n), 1.0 / prob.u_grid.n)
        vw = np.full((n_subintervals, prob.v_grid.n), 1.0 / prob.v_grid.n)
        return cls("openloop", uw, vw)

    @classmethod
    def from_sweep(cls, result: SweepResult, grid: SpaceGrid) -> "StrategyProfile":
        """Feedback profile from the recorded per-node saddle strategies."""
        if result.mu is None or result.nu is None:
            raise ValueError("sweep was run without record_strategies=True")
        if result.mu.ndim != 3:
            raise ValueError("feedback profiles are supported for d=1 only")
        if grid.d != 1:
            raise ValueError("feedback profiles are supported for d=1 only")
        if result.levels[0].values.shape != grid.shape:
            raise ValueError(f"the sweep ran on a grid of shape {result.levels[0].values.shape}, "
                             f"not on the given grid of shape {grid.shape}")
        axis = grid.axes[0]
        work_axis = axis[1:-1] if result.mu.shape[1] == axis.size - 2 else axis[:-1]
        return cls("feedback", result.mu, result.nu, cell_axis=work_axis)

    def cells_at(self, x: np.ndarray) -> np.ndarray:
        """Nearest-node cell of ``cell_axis`` for every state (feedback only)."""
        if self.mode != "feedback":
            raise ValueError("only feedback profiles have cells")
        axis = self.cell_axis
        # searchsorted gives the right neighbor index
        right = np.clip(np.searchsorted(axis, x[:, 0]), 0, axis.size - 1)
        left = np.clip(right - 1, 0, axis.size - 1)
        use_left = np.abs(axis[left] - x[:, 0]) <= np.abs(axis[right] - x[:, 0])
        return np.where(use_left, left, right)

    def weights_at(self, subinterval: int, player: int, x: np.ndarray) -> np.ndarray:
        """Weights for every path given states at the left endpoint."""
        w = self.u_weights if player == 1 else self.v_weights
        if self.mode == "openloop":
            return np.broadcast_to(w[subinterval], (x.shape[0], w.shape[-1]))
        return w[subinterval][self.cells_at(x)]

    @classmethod
    def from_jsonable(cls, data: dict) -> "StrategyProfile":
        if not isinstance(data, dict):
            raise ValueError(f"a profile must be a JSON object, got {type(data).__name__}")
        missing = [k for k in ("mode", "u_weights", "v_weights") if k not in data]
        if missing:
            raise ValueError(f"profile missing keys: {missing}")
        axis = data.get("cell_axis")
        return cls(
            data["mode"],
            np.asarray(data["u_weights"], dtype=float),
            np.asarray(data["v_weights"], dtype=float),
            cell_axis=None if axis is None else np.asarray(axis, dtype=float),
        )


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated forward paths with their control draws.

    ``states`` has shape (n_paths, n_sub + 1, d): the state at each
    partition time t_0, ..., t_n, the Euler substeps in between not being
    kept; draws are grid indices per subinterval, in the smallest unsigned
    dtype that holds them (uint8 up to 256 controls); ``running_cost``
    integrates f along each path (left-endpoint rule on the substeps,
    meaningful when f is free of (y, z)).  Row ``i`` is path
    ``first_path + i`` of the device's streams.
    """

    states: np.ndarray
    u_indices: np.ndarray
    v_indices: np.ndarray
    running_cost: np.ndarray
    partition: Partition
    euler_substeps: int
    x0: np.ndarray
    seed: int
    first_path: int = 0

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]


def _cumulative(weights: np.ndarray) -> np.ndarray:
    """Cumulative weights along the control axis, the last one exactly 1."""
    cum = np.cumsum(weights, axis=-1)
    cum[..., -1] = 1.0
    return cum


def _draw_indices(uniforms: np.ndarray, cum: np.ndarray, cells=None) -> np.ndarray:
    """Inverse-CDF categorical draw, one per path.

    The index is the number of cumulative weights at or below the uniform,
    so control k owns [cum_{k-1}, cum_k) and a control of weight 0 is never
    drawn; ``cum`` is one row of them, or one row per cell gathered by
    ``cells`` per path.  The last weight is exactly 1 and uniforms are below
    1, so only the m - 1 leading columns are compared.
    """
    idx = np.zeros(uniforms.shape, dtype=np.int64)
    for k in range(cum.shape[-1] - 1):
        idx += uniforms >= (cum[k] if cells is None else cum[cells, k])
    return idx


class _NonFiniteState(ArithmeticError):
    """A state went non-finite at ``where`` = (subinterval, substep, path)."""

    def __init__(self, where):
        j, s, path = where
        super().__init__(f"non-finite state at path {path}, subinterval {j}, substep {s}")
        self.where = where


def _map_chunks(chunk, n_paths: int) -> None:
    """``chunk(lo, hi)`` for every chunk of paths, on up to ``_WORKERS`` threads.

    The W workers take every W-th chunk of ceil(``_CHUNK_PATHS`` / W) paths,
    so at most ``_CHUNK_PATHS`` paths (rounded up to a multiple of W) are in
    flight; a single chunk runs inline.  Every thread is joined before this
    returns or raises.  The exception of the lowest chunk that raised is
    raised again, as a loop over the chunks would; else a chunk's result,
    None or the (subinterval, substep, path) of its first non-finite state,
    gives :class:`_NonFiniteState` at the earliest of them.
    """
    workers = _WORKERS
    size = -(-_CHUNK_PATHS // workers)
    bounds = [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]
    results = [None] * len(bounds)
    errors = [None] * len(bounds)

    def work(first):
        for i in range(first, len(bounds), workers):
            try:
                results[i] = chunk(*bounds[i])
            except BaseException as err:  # re-raised in chunk order below
                errors[i] = err
                return

    threads = []
    try:
        for w in range(1, min(workers, len(bounds))):
            thread = threading.Thread(target=work, args=(w,))
            thread.start()
            threads.append(thread)
        work(0)
    finally:
        for thread in threads:
            thread.join()
    for err in errors:
        if err is not None:
            raise err
    bad = [where for where in results if where is not None]
    if bad:
        raise _NonFiniteState(min(bad))


def _start_state(prob: Problem, x0) -> np.ndarray:
    """``x0`` as a finite float vector of the problem's dimension."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size != prob.d:
        raise ValueError(f"x0 has dimension {x0.size}, expected {prob.d}")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")
    return x0


def simulate(prob: Problem, pi: Partition, profile: StrategyProfile, x0,
             n_paths: int, euler_substeps: int, device: RandomizationDevice,
             first_path: int = 0) -> PathEnsemble:
    """Simulate randomized-control paths along the partition.

    Per subinterval: both players draw controls at the left endpoint from
    their private streams (conditionally independent given the past, and
    state-dependent in feedback mode), then the state advances with
    ``euler_substeps`` Euler-Maruyama steps under the frozen pair.  A
    b, sigma or f entry is evaluated at the first substep of a subinterval,
    and at each later one only if it names t or x; the result is bitwise
    that of evaluating every entry at every substep.

    The paths simulated are ``first_path, ..., first_path + n_paths - 1``
    of the device's streams, so consecutive calls that continue each
    other's ``first_path`` give, row for row, the ensemble of one call.
    Paths run in chunks on up to ``_WORKERS`` threads, each chunk drawing
    from the streams at its own path offset, so the ensemble is bitwise that
    of one chunk.  ``_CHUNK_PATHS`` bounds the paths in flight in total, so
    memory beyond the returned ensemble is bounded by one chunk of that
    size.  A partition that does not end at ``prob.T``, a profile that does
    not fit the game or a non-finite ``x0`` raises ``ValueError`` before
    any draw.  A non-finite state raises ``ArithmeticError`` naming the
    earliest (subinterval, substep) at which one occurs and the lowest
    path index there, counted from path 0 of the streams, whatever the
    chunk size and the number of threads.
    """
    if n_paths < 1 or euler_substeps < 1:
        raise ValueError("need n_paths >= 1 and euler_substeps >= 1")
    if not (_is_int(first_path) and first_path >= 0):
        raise ValueError(f"first_path must be an int >= 0, got {first_path!r}")
    first_path = int(first_path)  # Philox.advance rejects numpy integers
    _check_horizon(prob, pi)
    if profile.n_subintervals != pi.n:
        raise ValueError(
            f"profile has {profile.n_subintervals} subintervals, partition has {pi.n}"
        )
    for weights, controls, who in ((profile.u_weights, prob.u_grid.n, "u"),
                                   (profile.v_weights, prob.v_grid.n, "v")):
        if weights.shape[-1] != controls:
            raise ValueError(f"{who} controls: the profile has {weights.shape[-1]}, "
                             f"the game has {controls}")
    if profile.mode == "feedback" and prob.d != 1:
        raise ValueError(f"feedback profiles are supported for d=1 only, the game has d={prob.d}")
    x0 = _start_state(prob, x0)

    states = np.empty((n_paths, pi.n + 1, prob.d))
    states[:, 0] = x0
    # stored in the smallest dtype holding the grid indices; draws stay int64
    u_idx = np.empty((n_paths, pi.n), dtype=np.min_scalar_type(profile.u_weights.shape[-1] - 1))
    v_idx = np.empty((n_paths, pi.n), dtype=np.min_scalar_type(profile.v_weights.shape[-1] - 1))
    cost = np.zeros(n_paths)
    cums = (_cumulative(profile.u_weights), _cumulative(profile.v_weights))

    def chunk(lo, hi):
        return _simulate_chunk(prob, pi, profile, cums, euler_substeps, device,
                               first_path + lo, states[lo:hi], u_idx[lo:hi], v_idx[lo:hi],
                               cost[lo:hi])

    _map_chunks(chunk, n_paths)
    return PathEnsemble(
        states=states,
        u_indices=u_idx,
        v_indices=v_idx,
        running_cost=cost,
        partition=pi,
        euler_substeps=euler_substeps,
        x0=x0,
        seed=device.seed,
        first_path=first_path,
    )


def _simulate_chunk(prob, pi, profile, cums, euler_substeps, device, lo,
                    states, u_idx, v_idx, cost):
    """Simulate the paths ``lo, lo + 1, ...`` into the given row slices.

    Returns None, or (subinterval, substep, global path) of the first
    non-finite state, at which the chunk stops.
    """
    n = states.shape[0]
    moving = frozenset(("t", *prob.x_names()))
    x = states[:, 0].copy()
    for j in range(pi.n):
        t_left, t_right = pi.times[j], pi.times[j + 1]
        delta = (t_right - t_left) / euler_substeps
        cells = profile.cells_at(x) if profile.mode == "feedback" else None
        du = _draw_indices(device.control_uniforms(j, 1, lo, n), cums[0][j], cells)
        dv = _draw_indices(device.control_uniforms(j, 2, lo, n), cums[1][j], cells)
        u_idx[:, j] = du
        v_idx[:, j] = dv
        normals = device.brownian_normals(j, lo, n, euler_substeps, prob.d)
        sqdt = math.sqrt(delta)
        # the controls are frozen: after the first substep only the entries
        # naming t or x are evaluated again, and stacked and scaled if they were
        coef = None
        for s in range(euler_substeps):
            t = t_left + s * delta
            prev, coef = coef, prob.coefficients(t, x, du, dv, previous=coef, changed=moving)
            b, sig, f = coef
            if prev is None or b is not prev[0]:
                b_delta = stack_entries(b, du.shape) * delta
            if prev is None or sig is not prev[1]:
                sig_stacked = stack_entries(sig, du.shape)
            if prev is None or f is not prev[2]:
                f_delta = delta * f
            cost += f_delta
            dw = normals[:, s, :] * sqdt
            x = x + b_delta + np.einsum("nij,nj->ni", sig_stacked, dw)
            if not np.all(np.isfinite(x)):
                return j, s, lo + int(np.argwhere(~np.isfinite(x))[0, 0])
        states[:, j + 1] = x
    return None


# ---------------------------------------------------------------------------
# Payoff estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PayoffEstimate:
    mean: float
    std_error: float
    n_paths: int


class ClassicalCaseError(ValueError):
    """f depends on y or z: expected payoffs need the PDE route."""


def _check_classical(prob: Problem) -> None:
    if prob.f_needs_yz:
        raise ClassicalCaseError(
            "running cost depends on y or z; expected-payoff Monte Carlo only "
            "covers the classical case (use the PDE or partition solvers instead)"
        )


def _payoffs(ensemble: PathEnsemble, prob: Problem) -> np.ndarray:
    """Terminal plus running cost of every path of the ensemble."""
    payoff = np.asarray(prob.terminal_cost(ensemble.states[:, -1]), dtype=float)
    return np.broadcast_to(payoff, (ensemble.n_paths,)) + ensemble.running_cost


def _statistics(payoff: np.ndarray) -> PayoffEstimate:
    """Sample mean and standard error; numpy pairwise summation, deterministic.

    The standard error is ``np.std(payoff, ddof=1) / sqrt(n)`` bitwise: the
    same subtraction, squaring and sum as ``np.std``, done in ``payoff``
    itself (which is overwritten) where ``np.std`` allocates a temporary
    as large as it.  A standard error needs at least two paths.
    """
    n = payoff.size
    if n < 2:
        raise ValueError(f"a standard error needs at least 2 paths, got {n}")
    mean = np.mean(payoff)
    np.square(np.subtract(payoff, mean, out=payoff), out=payoff)
    se = float(np.sqrt(np.add.reduce(payoff) / (n - 1)) / math.sqrt(n))
    return PayoffEstimate(mean=float(mean), std_error=se, n_paths=n)


def estimate_payoff(ensemble: PathEnsemble, prob: Problem) -> PayoffEstimate:
    """Sample mean and standard error of terminal plus running cost.

    Requires the classical case: f must not name y or any z component
    (``Problem.f_needs_yz``).  The reduction is numpy pairwise summation,
    deterministic for a fixed ensemble.  An ensemble of fewer than two paths
    raises ``ValueError``: it has no standard error.
    """
    _check_classical(prob)
    return _statistics(_payoffs(ensemble, prob))


def estimate(prob: Problem, pi: Partition, profile: StrategyProfile, x0, n_paths: int,
             euler_substeps: int, device: RandomizationDevice) -> PayoffEstimate:
    """``estimate_payoff(simulate(...), prob)`` bitwise, without the ensemble.

    The paths go through :func:`simulate` one chunk at a time, each at its
    own ``first_path``, with the chunks on up to ``_WORKERS`` threads and
    ``_CHUNK_PATHS`` paths in flight in total; each call sees one chunk and
    runs it inline.  Only the payoff of every path is kept: memory is 8
    bytes per path plus the ensembles of the chunks in flight, where the
    ensemble of all paths holds O(paths x subintervals); the statistics
    reduce the payoff vector in place.  They are those of
    :func:`estimate_payoff` over the same payoff vector.  Input that
    :func:`simulate` rejects, and fewer than two paths, raise
    ``ValueError`` before any draw.  A non-finite state raises the
    ``ArithmeticError`` that it would: the earliest (subinterval, substep)
    over all chunks and the lowest path index there.
    """
    _check_classical(prob)
    if n_paths < 2 or euler_substeps < 1:  # a standard error needs two paths
        raise ValueError("need n_paths >= 2 and euler_substeps >= 1")
    x0 = _start_state(prob, x0)
    payoff = np.empty(n_paths)

    def chunk(lo, hi):
        # the chunk's ensemble is not bound to a name, so it is freed before
        # the worker simulates its next chunk
        try:
            payoff[lo:hi] = _payoffs(simulate(prob, pi, profile, x0, hi - lo, euler_substeps,
                                              device, first_path=lo), prob)
        except _NonFiniteState as err:
            return err.where
        return None

    _map_chunks(chunk, n_paths)
    return _statistics(payoff)


# ---------------------------------------------------------------------------
# Exploitability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExploitResult:
    """Exploitability of a fixed profile.

    ``best_response_value`` and ``profile_value`` are values at ``x0`` of
    one monotone Markov chain, the explicit Kushner-Dupuis scheme on a
    grid, with the free player deviating optimally and following the
    profile respectively.  Both carry only the scheme's O(h) grid error and
    no sampling error, and are deterministic.  ``gain`` is the free
    player's improvement between the two; the discrete comparison principle
    makes it >= 0, and exactly 0 when the free player has no deviation.
    ``baseline`` is the independent Monte Carlo estimate of the profile's
    payoff.
    """

    gain: float
    best_response_value: float
    profile_value: float
    baseline: PayoffEstimate


def _interpolate(grid: SpaceGrid, values: np.ndarray, x: np.ndarray) -> float:
    """Multilinear interpolation of a level at x, one axis at a time.

    A coordinate outside the grid takes the value at the nearest end.
    """
    for axis, xi in zip(grid.axes, x):
        k = min(max(int(np.searchsorted(axis, xi)), 1), axis.size - 1)
        w = min(max((xi - axis[k - 1]) / (axis[k] - axis[k - 1]), 0.0), 1.0)
        values = (1.0 - w) * values[k - 1] + w * values[k]
    return float(values)


def exploit(prob: Problem, pi: Partition, fixed_side: str, fixed_profile: StrategyProfile,
            x0, n_paths: int, device: RandomizationDevice, nx=41,
            euler_substeps: int = 4) -> ExploitResult:
    """Gain of the best Markov deviation against a fixed profile.

    ``fixed_side`` names the player held to the profile.  On the grid
    ``SpaceGrid.for_problem(prob, nx)``, two levels go backward from the
    terminal cost by the march that :func:`dpp_sweep` runs, with its CFL
    substeps: on one both players hold the profile's weights at each node,
    on the other the free player re-optimizes over pure controls at every
    node and substep.  Both are read at ``x0`` by multilinear
    interpolation.  As the scheme is monotone the free player cannot do
    worse by re-optimizing, so ``gain`` >= 0 is a property of the chain,
    not of sampling.  Open-loop profiles work in any dimension;
    feedback profiles exist for d = 1 only.
    ``baseline`` is the independent Monte Carlo payoff of both players
    following the profile over ``n_paths`` paths with ``euler_substeps``
    Euler steps per subinterval.
    """
    if fixed_side not in ("player1", "player2"):
        raise ValueError("fixed_side must be 'player1' or 'player2'")
    _check_classical(prob)
    free = 2 if fixed_side == "player1" else 1

    baseline = estimate(prob, pi, fixed_profile, x0, n_paths, euler_substeps, device)

    grid = SpaceGrid.for_problem(prob, nx)
    stepper, _, substep_times = _scheduled(prob, grid, pi, SchemeParams())
    nodes = stepper._xw.reshape(-1, prob.d)

    def holding(players):
        """Strategies that hold the profile's weights for ``players``, None for the others."""
        return lambda j, ent: tuple(
            fixed_profile.weights_at(j, player, nodes).reshape(stepper.work_shape + (-1,))
            if player in players else None for player in (1, 2))

    phi = terminal_field(prob, grid).values
    marches = (_march(stepper, phi, substep_times, holding({1, 2} - {free})),
               _march(stepper, phi, substep_times, holding({1, 2})))
    for (_, best), (_, profile) in zip(*marches):
        pass

    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    br_value = _interpolate(grid, best, x0)
    prof_value = _interpolate(grid, profile, x0)
    gain = br_value - prof_value if free == 1 else prof_value - br_value
    return ExploitResult(
        gain=float(gain),
        best_response_value=br_value,
        profile_value=prof_value,
        baseline=baseline,
    )
