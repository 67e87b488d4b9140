"""3x3 test games on (-1, 0, 1) x (-1, 0, 1), shared by several test modules."""

from mixedvalue.problem import load_problem


def payoff3(mat):
    """DSL f equal to mat[i][j] at (u1, v1) = (-1, 0, 1)[i], (-1, 0, 1)[j]."""
    basis = ("{s}*({s}-1)/2", "(1-{s}*{s})", "{s}*({s}+1)/2")
    return " + ".join(
        f"{mat[i][j]!r}*{basis[i].format(s='u1')}*{basis[j].format(s='v1')}"
        for i in range(3) for j in range(3)
    )


CONTROLS3 = {"points": [[-1.0], [0.0], [1.0]]}


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
