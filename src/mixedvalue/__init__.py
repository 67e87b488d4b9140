"""Mixed-strategy values of zero-sum stochastic differential games.

Numerical toolkit with three cross-validating routes to the same value
function: a monotone finite-difference solve of the relaxed HJBI equation,
a partition-indexed backward dynamic-programming sweep producing lower and
upper values, and Monte Carlo simulation of per-subinterval randomized
controls.  The routes live in ``pde``, ``partition`` and ``montecarlo``;
the local matrix games are solved in ``games``.  The package namespace
holds the pointwise Hamiltonian matrix and problem loading.
"""

__version__ = "0.1.0"

from .hamiltonian import HamiltonianPoint, payoff_matrix
from .problem import (
    CATALOG,
    Bounds,
    ControlGrid,
    Domain,
    Problem,
    interior_window,
    load_problem,
)

__all__ = [
    "__version__",
    "HamiltonianPoint",
    "payoff_matrix",
    "Problem",
    "ControlGrid",
    "Domain",
    "Bounds",
    "CATALOG",
    "load_problem",
    "interior_window",
]
