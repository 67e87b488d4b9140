"""Test games shared by several test modules, most of them 3x3 on (-1, 0, 1) x (-1, 0, 1).

Also malformed variants of ``uv_drift``, and terminal costs nested too deep,
which no loader may accept.
"""

import math

from mixedvalue.problem import CATALOG, load_problem


def payoff3(mat):
    """DSL f equal to mat[i][j] at (u1, v1) = (-1, 0, 1)[i], (-1, 0, 1)[j]."""
    basis = ("{s}*({s}-1)/2", "(1-{s}*{s})", "{s}*({s}+1)/2")
    return " + ".join(
        f"{mat[i][j]!r}*{basis[i].format(s='u1')}*{basis[j].format(s='v1')}"
        for i in range(3) for j in range(3)
    )


CONTROLS3 = {"points": [[-1.0], [0.0], [1.0]]}

# d = 1 with a state-dependent sigma, a 2 x 3 game and an f that names y and z
YZ_1D = {
    "name": "yz_1d", "d": 1, "T": 1.0,
    "b": ["u1*v1 - 0.1*x1 + 0.2*sin(x1)"], "sigma": [["0.8 + 0.1*cos(x1)"]],
    "f": "u1*v1 + 0.3*z1*cos(t) - 0.2*y", "phi": "cos(x1)",
    "U": {"points": [[-1.0], [1.0]]}, "V": {"points": [[-1.0], [0.0], [1.0]]},
    "domain": {"min": [-3.0], "max": [3.0]},
    "condition41_mode": "f_linear_in_z",
    "bounds": {"sup_b": 2.0, "sup_sigma": 1.1, "lip_y_f": 0.2, "sup_f": 2.0,
               "sup_phi": 1.0, "value_lip": 1.0},
}


def game3_problem(name, b, f, phi, sup_b, sup_f, phi_bound):
    return load_problem({
        "name": name, "d": 1, "T": 1.0, "b": [b], "sigma": [["1"]], "f": f, "phi": phi,
        "U": CONTROLS3, "V": CONTROLS3,
        "domain": {"min": [-6.0], "max": [6.0], "boundary": "clamp"},
        "condition41_mode": "sigma_uncontrolled",
        "bounds": {"sup_b": sup_b, "sup_sigma": 1.0, "lip_y_f": 0.0, "sup_f": sup_f,
                   "sup_phi": phi_bound, "value_lip": phi_bound},
    })


def drift_cost3():
    # player-controlled drift and a fully mixed 3x3 running cost: node- and
    # level-dependent local games whose saddles use 2x2 and 3x3 kernels
    mat = [[0.8, -0.6, 0.3], [-0.7, 0.9, -0.2], [0.1, -0.4, 0.6]]
    return game3_problem("drift_cost3", "u1 - 0.5*v1", payoff3(mat), "cos(x1)",
                         sup_b=1.5, sup_f=0.9, phi_bound=1.0)


def uv_drift_with(**overrides):
    return {**CATALOG["uv_drift"], **overrides}


# uv_drift with one key of the wrong JSON shape: case -> (config, the ProblemError message)
MALFORMED_PROBLEMS = {
    "config_array": ([uv_drift_with()], "a problem config must be a JSON object, got list"),
    "U_without_points": (uv_drift_with(U={}), "missing required key 'points' in U"),
    "U_array": (uv_drift_with(U=[[-1.0], [1.0]]), "U must be a JSON object, got list"),
    "V_number": (uv_drift_with(V=2), "V must be a JSON object, got int"),
    "domain_array": (uv_drift_with(domain=[[-7.0], [7.0]]),
                     "domain must be a JSON object, got list"),
    "bounds_null": (uv_drift_with(bounds=None), "bounds must be a JSON object, got NoneType"),
    "b_number": (uv_drift_with(b=5), "b must be a list of 1 expression strings, got 5"),
    "b_of_a_number": (uv_drift_with(b=[5]), "b must be a list of 1 expression strings, got [5]"),
    "b_string": (uv_drift_with(b="u1*v1"),
                 "b must be a list of 1 expression strings, got 'u1*v1'"),
    "sigma_string": (uv_drift_with(sigma="1"),
                     "sigma must be 1 lists of 1 expression strings, got '1'"),
    "sigma_row_string": (uv_drift_with(sigma=["1"]),
                         "sigma must be 1 lists of 1 expression strings, got ['1']"),
    "sigma_of_a_number": (uv_drift_with(sigma=[[1]]),
                          "sigma must be 1 lists of 1 expression strings, got [[1]]"),
    "f_number": (uv_drift_with(f=0), "f must be a string expression, got 0"),
    "T_null": (uv_drift_with(T=None), "horizon T must be a number, got None"),
    "T_string": (uv_drift_with(T="1.0"), "horizon T must be a number, got '1.0'"),
    "d_fraction": (uv_drift_with(d=1.5), "state dimension d must be the integer 1 or 2, got 1.5"),
    "bound_null": (uv_drift_with(bounds={**CATALOG["uv_drift"]["bounds"], "sup_b": None}),
                   "bound sup_b must be a number, got None"),
    "bound_string": (uv_drift_with(bounds={**CATALOG["uv_drift"]["bounds"], "sup_f": "0"}),
                     "bound sup_f must be a number, got '0'"),
    "domain_max_infinite": (uv_drift_with(domain={"min": [-7.0], "max": [math.inf]}),
                            "domain bounds must be finite, got min [-7.0] and max [inf]"),
}

# terminal costs of uv_drift nested deeper than the parser's limit: case -> phi.
# Each used to end load_problem in a RecursionError; 100 000 unary minuses
# make Python's own parser raise MemoryError.
TOO_DEEP_PHI = {
    "parentheses_300": "(" * 300 + "x1" + ")" * 300,
    "sum_of_1200_terms": "+".join(["x1"] * 1200),
    "minus_3000": "-" * 3000 + "x1",
    "minus_100000": "-" * 100_000 + "x1",
}
