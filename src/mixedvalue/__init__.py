"""Mixed-strategy values of zero-sum stochastic differential games.

Numerical toolkit with three cross-validating routes to the same value
function: a monotone finite-difference solve of the relaxed HJBI equation,
a backward dynamic-programming sweep along a time partition that holds
per-node strategies over each subinterval (it returns the relaxed V_h at
every |pi|, not the paper's W^pi, which holds one randomized control pair
whatever the state does), and Monte Carlo simulation of per-subinterval
randomized controls.  The routes live in ``pde``, ``partition`` and ``montecarlo``;
the local matrix games are solved in ``games``.  The package namespace
holds the table of pointwise Hamiltonian matrices over a stack of
(p, A) points, and problem loading.
"""

__version__ = "0.1.0"

from .hamiltonian import payoff_matrix
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
    "payoff_matrix",
    "Problem",
    "ControlGrid",
    "Domain",
    "Bounds",
    "CATALOG",
    "load_problem",
    "interior_window",
]
