"""Pointwise Hamiltonians of the game: tables of generator values.

At a state (t, x, y), for a gradient p and a Hessian argument A, the
per-control generator value is

    0.5 * tr(sigma sigma^T(t,x,u,v) A) + b(t,x,u,v).p
        + f(t, x, y, p.sigma(t,x,u,v), u, v).

:func:`payoff_matrix` tabulates it over the control grids for a stack of
(p, A) points at one state, evaluating b and sigma once for the whole
stack.  The pure Hamiltonians are its sup-inf / inf-sup envelopes
(``games.pure_envelope``); the relaxed Hamiltonian is its value as a
matrix game over mixed strategies (``games.solve_games``), whose sup-inf
and inf-sup coincide (bilinearity), which is what the duality gap
reports.  Both take the stack as it is, one matrix per point.  A is
always supplied by the caller; this module never differentiates.
"""

from __future__ import annotations

import numpy as np

from .problem import Problem, stack_entries

__all__ = [
    "payoff_matrix",
]


def payoff_matrix(prob: Problem, t: float, x, y: float, p, A) -> np.ndarray:
    """Generator values (m, k, n) over the control grids at n points (p, A).

    x has shape (d,), p (n, d) and A (n, d, d), each A symmetric within
    1e-12; t, x, y, p and A must be finite.  b and sigma are evaluated
    once at (t, x), f once over the stack at y and z = p.sigma.  The
    bilinear extension to mixed strategies (mu, nu) of the matrix of
    point j is exactly mu^T M[:, :, j] nu, so matrix-game machinery
    applies directly.
    """
    x, p, A = (np.asarray(a, dtype=float) for a in (x, p, A))
    d = prob.d
    if x.shape != (d,) or p.ndim != 2 or p.shape[1:] != (d,) or A.shape != (len(p), d, d):
        raise ValueError(f"expected x ({d},), p (n, {d}) and A (n, {d}, {d}), "
                         f"got x {x.shape}, p {p.shape}, A {A.shape}")
    if not (np.isfinite(t) and np.isfinite(y) and np.isfinite(x).all()):
        raise ValueError("t, x and y must be finite")
    bad = ~(np.isfinite(p).all(axis=1) & np.isfinite(A).all(axis=(1, 2)))
    if bad.any():
        raise ValueError(f"point {bad.argmax()} has non-finite p or A")
    bad = np.abs(A - np.swapaxes(A, 1, 2)).max(axis=(1, 2), initial=0.0) > 1e-12
    if bad.any():
        raise ValueError(f"A of point {bad.argmax()} must be symmetric within 1e-12")
    # a trailing point axis of length 1 broadcasts against the n points
    iu = np.arange(prob.u_grid.n)[:, None, None]
    iv = np.arange(prob.v_grid.n)[None, :, None]
    shape = (prob.u_grid.n, prob.v_grid.n, 1)
    coef = prob.coefficients(t, x, iu, iv, with_f=False)
    b, sig = stack_entries(coef[0], shape), stack_entries(coef[1], shape)
    z = np.stack([sum(p[:, i] * sig[..., i, j] for i in range(d)) for j in range(d)], axis=-1)
    fval = prob.coefficients(t, x, iu, iv, y, z, coef, frozenset(("y", *prob.z_names())))[2]
    trace = np.trace(sig @ np.swapaxes(sig, -1, -2) @ A, axis1=-2, axis2=-1)
    return 0.5 * trace + sum(b[..., i] * p[:, i] for i in range(d)) + fval
