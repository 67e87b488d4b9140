"""Mixed-strategy values of zero-sum stochastic differential games.

Numerical toolkit with three cross-validating routes to the same value
function: a monotone finite-difference solve of the relaxed HJBI equation,
a partition-indexed backward dynamic-programming sweep producing lower and
upper values, and Monte Carlo simulation of per-subinterval randomized
controls.
"""

__version__ = "0.1.0"

from .games import (
    GameSolution,
    MixedStrategy,
    PayoffMatrix,
    best_response_value,
    pure_minimax,
    solve_game,
)
from .hamiltonian import (
    HamiltonianPoint,
    hamiltonian_value,
    payoff_matrix,
    pure_bounds,
    relaxed_value,
)
from .problem import (
    CATALOG,
    Bounds,
    ControlGrid,
    Domain,
    Problem,
    catalog_names,
    freeze,
    interior_window,
    load_problem,
)

__all__ = [
    "__version__",
    "PayoffMatrix",
    "MixedStrategy",
    "GameSolution",
    "solve_game",
    "pure_minimax",
    "best_response_value",
    "HamiltonianPoint",
    "hamiltonian_value",
    "payoff_matrix",
    "relaxed_value",
    "pure_bounds",
    "Problem",
    "ControlGrid",
    "Domain",
    "Bounds",
    "CATALOG",
    "catalog_names",
    "load_problem",
    "freeze",
    "interior_window",
]
