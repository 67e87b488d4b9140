"""Pointwise Hamiltonians of the game: the matrix of generator values.

For a point (t, x, y, p, A) with p the gradient and A the Hessian
argument, the per-control generator value is

    0.5 * tr(sigma sigma^T(t,x,u,v) A) + b(t,x,u,v).p
        + f(t, x, y, p.sigma(t,x,u,v), u, v).

:func:`payoff_matrix` tabulates it over the control grids.  The pure
Hamiltonians are its sup-inf / inf-sup envelopes (``games.pure_envelope``);
the relaxed Hamiltonian is its value as a matrix game over mixed
strategies (``games.solve_games``), whose sup-inf and inf-sup coincide
(bilinearity), which is what the duality gap reports.  Both take a stack
of matrices, one per point.  A is always supplied by the caller; this
module never differentiates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import Problem, stack_entries

__all__ = [
    "HamiltonianPoint",
    "payoff_matrix",
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


def payoff_matrix(pt: HamiltonianPoint, prob: Problem) -> np.ndarray:
    """Matrix (m, k) of generator values over the control grids.

    The bilinear extension to mixed strategies (mu, nu) is exactly
    mu^T M nu, so matrix-game machinery applies directly.
    """
    iu = np.arange(prob.u_grid.n)[:, None]
    iv = np.arange(prob.v_grid.n)[None, :]
    shape = (prob.u_grid.n, prob.v_grid.n)
    coef = prob.coefficients(pt.t, pt.x, iu, iv)
    b, sig = stack_entries(coef[0], shape), stack_entries(coef[1], shape)
    # f at (y, z = p.sigma): evaluated again only if it names y or z
    fval = prob.coefficients(pt.t, pt.x, iu, iv, pt.y, pt.p @ sig, coef,
                             frozenset(("y", *prob.z_names())))[2]
    trace = np.trace(sig @ np.swapaxes(sig, -1, -2) @ pt.A, axis1=-2, axis2=-1)
    return 0.5 * trace + np.dot(b, pt.p) + fval
