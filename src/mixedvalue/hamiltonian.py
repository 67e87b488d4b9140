"""Pointwise Hamiltonians of the game: pure envelopes and relaxed value.

For a point (t, x, y, p, A) with p the gradient and A the Hessian
argument, the per-control generator value is

    0.5 * tr(sigma sigma^T(t,x,u,v) A) + b(t,x,u,v).p
        + f(t, x, y, p.sigma(t,x,u,v), u, v).

The pure envelopes take sup-inf / inf-sup over the control grids; the
relaxed value solves the induced matrix game over mixed strategies, whose
sup-inf and inf-sup coincide (bilinearity), which is what the duality gap
reports.  A is always supplied by the caller; this module never
differentiates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import GameSolution, PayoffMatrix, pure_minimax, solve_game
from .problem import Problem, stack_entries

__all__ = [
    "HamiltonianPoint",
    "hamiltonian_value",
    "payoff_matrix",
    "relaxed_value",
    "pure_bounds",
]


@dataclass(frozen=True)
class HamiltonianPoint:
    t: float
    x: np.ndarray  # (d,)
    y: float
    p: np.ndarray  # (d,)
    A: np.ndarray  # (d, d) symmetric

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if x.shape != p.shape or A.shape != (x.size, x.size):
            raise ValueError(
                f"inconsistent shapes: x {x.shape}, p {p.shape}, A {A.shape}"
            )
        for arr in (x, p, A):
            if not np.all(np.isfinite(arr)):
                raise ValueError("Hamiltonian point has non-finite entries")
        if not np.isfinite(self.t) or not np.isfinite(self.y):
            raise ValueError("Hamiltonian point has non-finite entries")
        if np.max(np.abs(A - A.T)) > 1e-12:
            raise ValueError("A must be symmetric within 1e-12")
        for arr in (x, p, A):
            arr.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "A", A)

    @property
    def d(self) -> int:
        return self.x.size


def _generator(pt: HamiltonianPoint, prob: Problem, iu, iv) -> np.ndarray:
    """Generator values for the broadcast control index arrays iu, iv."""
    shape = np.broadcast_shapes(np.shape(iu), np.shape(iv))
    b, sig = prob.coefficients(pt.t, pt.x, iu, iv)
    b, sig = stack_entries(b, shape), stack_entries(sig, shape)
    z = pt.p @ sig
    fval = prob.running_cost(pt.t, pt.x, iu, iv, pt.y, z)
    trace = np.trace(sig @ np.swapaxes(sig, -1, -2) @ pt.A, axis1=-2, axis2=-1)
    return 0.5 * trace + np.dot(b, pt.p) + fval


def hamiltonian_value(pt: HamiltonianPoint, prob: Problem, u_idx: int, v_idx: int) -> float:
    """Generator value for one pure control pair."""
    return float(_generator(pt, prob, u_idx, v_idx))


def payoff_matrix(pt: HamiltonianPoint, prob: Problem) -> PayoffMatrix:
    """Matrix of generator values over the control grids.

    The bilinear extension to mixed strategies (mu, nu) is exactly
    mu^T M nu, so matrix-game machinery applies directly.
    """
    iu = np.arange(prob.u_grid.n)[:, None]
    iv = np.arange(prob.v_grid.n)[None, :]
    return PayoffMatrix(_generator(pt, prob, iu, iv))


def relaxed_value(pt: HamiltonianPoint, prob: Problem, tol: float = 1e-9) -> GameSolution:
    """Saddle value over mixed strategies; sup-inf = inf-sup within tol."""
    return solve_game(payoff_matrix(pt, prob), tol=tol)


def pure_bounds(pt: HamiltonianPoint, prob: Problem) -> tuple[float, float]:
    """(sup-inf, inf-sup) over pure control pairs."""
    return pure_minimax(payoff_matrix(pt, prob))
