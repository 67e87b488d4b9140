"""Game instances: coefficients, control grids, horizon, truncated domain.

A problem bundles drift ``b``, diffusion ``sigma``, running cost ``f`` and
terminal cost ``phi`` (all as parsed coefficient expressions), the two
finite control grids, the time horizon, a truncated spatial box and a set
of user-declared bounds used for CFL limits and regularity tests.

The solvers require one of two structural modes:

* ``sigma_uncontrolled``: the diffusion does not reference the controls;
* ``f_linear_in_z``: the running cost has the shape f0(t,x,y,u,v) + f1(t).z
  (validated by a finite-difference linearity probe).

:meth:`Problem.coefficients` evaluates b, sigma and f, and
:meth:`Problem.terminal_cost` evaluates phi: they are the one place where
the expressions are evaluated.  Their arguments broadcast, so one call
covers every control pair at every state.  A caller that holds some
arguments fixed across calls (the stencil its nodes and controls, a
simulation its frozen controls, a Hamiltonian its point while z = p.sigma
changes) passes its previous result and the variables that changed, and
only the entries naming one of them are evaluated again.

Catalog problems carry exact finite control sets so no control
discretization error enters the benchmarks.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import dsl

__all__ = [
    "ControlGrid",
    "Domain",
    "Bounds",
    "Problem",
    "ProblemError",
    "ConditionViolationError",
    "load_problem",
    "stack_entries",
    "CATALOG",
    "value_bound",
    "interior_margin",
    "interior_window",
    "time_modulus_bound",
]


class ProblemError(ValueError):
    pass


class ConditionViolationError(ProblemError):
    """A coefficient violates the declared structural mode."""


@dataclass(frozen=True)
class ControlGrid:
    """Finite set of control points for one player ('U' or 'V')."""

    points: np.ndarray  # (n_points, q)
    label: str

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ProblemError(f"control grid {self.label} is empty")
        if not np.all(np.isfinite(pts)):
            raise ProblemError(f"control grid {self.label} has non-finite points")
        if len({tuple(row) for row in pts}) != pts.shape[0]:
            raise ProblemError(f"control grid {self.label} has duplicate points")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.label not in ("U", "V"):
            raise ProblemError(f"control grid label must be 'U' or 'V', got {self.label!r}")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def q(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Domain:
    x_min: np.ndarray
    x_max: np.ndarray
    boundary_mode: str = "clamp"

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.x_min, dtype=float))
        hi = np.atleast_1d(np.asarray(self.x_max, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ProblemError("domain bounds must be vectors of equal length")
        if not np.all(lo < hi):
            raise ProblemError("domain requires x_min < x_max componentwise")
        for arr in (lo, hi):
            arr.flags.writeable = False
        object.__setattr__(self, "x_min", lo)
        object.__setattr__(self, "x_max", hi)
        if self.boundary_mode not in ("clamp", "periodic"):
            raise ProblemError(f"unknown boundary mode {self.boundary_mode!r}")


@dataclass(frozen=True)
class Bounds:
    """User-declared coefficient bounds, trusted for CFL and regularity."""

    sup_b: float
    sup_sigma: float
    lip_y_f: float
    sup_f: float
    sup_phi: float
    value_lip: float

    _FIELDS = ("sup_b", "sup_sigma", "lip_y_f", "sup_f", "sup_phi", "value_lip")

    def __post_init__(self):
        # the CFL limit and the a-priori bounds take these as sups and Lipschitz
        # constants: a negative or non-finite one makes them meaningless
        for key in self._FIELDS:
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ProblemError(f"bound {key} must be finite and non-negative, got {value}")

    @classmethod
    def from_mapping(cls, data) -> "Bounds":
        """The bounds named in ``_FIELDS``; other keys, such as an old ``lip_phi``, are ignored."""
        missing = [k for k in cls._FIELDS if k not in data]
        if missing:
            raise ProblemError(f"bounds missing keys: {missing}")
        return cls(**{k: float(data[k]) for k in cls._FIELDS})


@dataclass(frozen=True)
class Problem:
    name: str
    d: int
    T: float
    b: tuple  # d expressions
    sigma: tuple  # d x d expressions
    f: dsl.Expr
    phi: dsl.Expr
    u_grid: ControlGrid
    v_grid: ControlGrid
    domain: Domain
    condition41_mode: str
    bounds: Bounds

    # -- variable naming helpers ------------------------------------------

    def x_names(self):
        return tuple(f"x{i + 1}" for i in range(self.d))

    def z_names(self):
        return tuple(f"z{i + 1}" for i in range(self.d))

    def u_names(self):
        return tuple(f"u{i + 1}" for i in range(self.u_grid.q))

    def v_names(self):
        return tuple(f"v{i + 1}" for i in range(self.v_grid.q))

    @property
    def f_needs_yz(self) -> bool:
        """Whether the running cost names y or any z component."""
        return bool(self._entry_variables[2] & {"y", *self.z_names()})

    # -- coefficient evaluation ---------------------------------------------
    #
    # t, the leading axes of x (shape (..., d)), y, the leading axes of z and
    # the control indices iu, iv broadcast against each other.  Each returned
    # entry keeps only the axes its expression depends on: a constant stays
    # a scalar.

    @cached_property
    def _entry_variables(self) -> tuple:
        """Free variables of the b, sigma and f entries, nested like (b, sigma, f)."""
        names = dsl.free_variables
        return (tuple(names(e) for e in self.b),
                tuple(tuple(names(e) for e in row) for row in self.sigma),
                names(self.f))

    @cached_property
    def _any_entry_variables(self) -> frozenset:
        """Every variable that some b, sigma or f entry names."""
        b, sigma, f = self._entry_variables
        return f.union(*b, *(n for row in sigma for n in row))

    def coefficients(self, t, x, iu, iv, y=0.0, z=0.0, previous=None, changed=frozenset(),
                     with_f=True) -> tuple:
        """(b, sigma, f): d drift entries, d x d diffusion entries and f(t, x, y, z, u, v).

        z is a scalar or has shape (..., d).  f is None unless ``with_f``,
        which has two callers' values: ``Stepper._evaluate_block`` passes
        False for a running cost that names y or z, and the (y, z) branch
        of ``Stepper.entries`` then evaluates f at each level, passing the
        block's entries as ``previous``; every other caller takes f.

        Without ``previous`` every entry is evaluated.  Otherwise
        ``previous`` is an earlier result at arguments that differ from
        these only in the variables named in ``changed``, and only the
        entries naming one of them are evaluated again.  Every other entry
        is the object in ``previous``, and so is b, a row of sigma or sigma
        when none of its entries was evaluated again: callers tell what
        changed by identity.
        """
        if previous is not None and self._any_entry_variables.isdisjoint(changed):
            return previous
        x = np.asarray(x, dtype=float)
        up = self.u_grid.points[iu]
        vp = self.v_grid.points[iv]
        bindings = {"t": t, "y": y}
        for i, name in enumerate(self.x_names()):
            bindings[name] = x[..., i]
        for i, name in enumerate(self.z_names()):
            bindings[name] = z if np.ndim(z) == 0 else z[..., i]
        for i, name in enumerate(self.u_names()):
            bindings[name] = up[..., i]
        for i, name in enumerate(self.v_names()):
            bindings[name] = vp[..., i]
        exprs = (self.b, self.sigma, self.f if with_f else None)
        return _renew(exprs, self._entry_variables, previous, changed,
                      lambda expr: dsl.evaluate(expr, bindings))

    def terminal_cost(self, x):
        """phi(x) for x of shape (..., d)."""
        x = np.asarray(x, dtype=float)
        return dsl.evaluate(self.phi, {name: x[..., i] for i, name in enumerate(self.x_names())})


def _renew(exprs, names, previous, changed, evaluate):
    """``exprs`` (nested tuples of expressions) with their entries evaluated.

    An entry is evaluated when there is no ``previous`` or when its
    variables ``names`` meet ``changed``; otherwise it is taken from
    ``previous``, and a tuple none of whose entries was evaluated is
    ``previous`` itself.  A None expression stays None.
    """
    if exprs is None:
        return None
    if isinstance(exprs, tuple):
        prevs = (None,) * len(exprs) if previous is None else previous
        out = tuple(_renew(e, n, p, changed, evaluate) for e, n, p in zip(exprs, names, prevs))
        if previous is not None and all(o is p for o, p in zip(out, previous)):
            return previous
        return out
    if previous is None or not names.isdisjoint(changed):
        return evaluate(exprs)
    return previous


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------


def value_bound(prob: Problem) -> float:
    """A-priori sup bound on any value field (discrete Gronwall form)."""
    bd = prob.bounds
    return bd.sup_phi + prob.T * bd.sup_f * math.exp(bd.lip_y_f * prob.T)


def interior_margin(prob: Problem) -> float:
    """Width of the boundary strip excluded from error measurements."""
    bd = prob.bounds
    return bd.sup_b * prob.T + 4.0 * bd.sup_sigma * math.sqrt(prob.T)


def interior_window(prob: Problem) -> tuple[np.ndarray, np.ndarray]:
    m = interior_margin(prob)
    lo = prob.domain.x_min + m
    hi = prob.domain.x_max - m
    if not np.all(lo < hi):
        raise ProblemError(
            "domain too small: interior window is empty after shrinking by "
            f"{m:.3g} per side"
        )
    return lo, hi


def time_modulus_bound(prob: Problem) -> float:
    """Declared bound on sup_x |W(t_j,x)-W(t_{j-1},x)| / sqrt(dt)."""
    bd = prob.bounds
    return 4.0 * (bd.sup_f + bd.sup_sigma * bd.value_lip)


# ---------------------------------------------------------------------------
# Loading and validation
# ---------------------------------------------------------------------------


def _parse_coeff(src: str, allowed, what: str):
    try:
        return dsl.parse(src, allowed)
    except dsl.ExpressionError as exc:
        raise ProblemError(f"cannot parse {what}: {exc}") from exc


def _require(cfg, key):
    if key not in cfg:
        raise ProblemError(f"missing required key {key!r} in problem config")
    return cfg[key]


def load_problem(source) -> "Problem":
    """Load and eagerly validate a problem.

    ``source`` may be a catalog name, a path to a JSON file, a JSON string
    or an already-parsed mapping.
    """
    if isinstance(source, str):
        if source in CATALOG:
            cfg = CATALOG[source]
        elif os.path.exists(source):
            with open(source, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        else:
            try:
                cfg = json.loads(source)
            except json.JSONDecodeError:
                raise ProblemError(
                    f"{source!r} is not a catalog name ({sorted(CATALOG)}), "
                    "an existing file, or valid JSON"
                ) from None
    elif isinstance(source, dict):
        cfg = source
    else:
        raise ProblemError(f"unsupported problem source {type(source)!r}")
    return _build_problem(cfg)


def _build_problem(cfg: dict) -> Problem:
    name = cfg.get("name", "unnamed")
    d = int(_require(cfg, "d"))
    if d not in (1, 2):
        raise ProblemError(f"state dimension must be 1 or 2, got {d}")
    if "T" in cfg:
        horizon = float(cfg["T"])
    elif "horizon" in cfg:
        horizon = float(cfg["horizon"])
    else:
        raise ProblemError("missing required key 'T' (alias 'horizon')")
    if horizon <= 0:
        raise ProblemError("horizon must be positive")

    u_grid = ControlGrid(np.asarray(_require(cfg, "U")["points"], dtype=float), "U")
    v_grid = ControlGrid(np.asarray(_require(cfg, "V")["points"], dtype=float), "V")

    dom_cfg = _require(cfg, "domain")
    domain = Domain(
        np.asarray(_require(dom_cfg, "min"), dtype=float),
        np.asarray(_require(dom_cfg, "max"), dtype=float),
        dom_cfg.get("boundary", "clamp"),
    )
    if domain.x_min.size != d:
        raise ProblemError(f"domain dimension {domain.x_min.size} does not match d={d}")

    mode = _require(cfg, "condition41_mode")
    if mode not in ("sigma_uncontrolled", "f_linear_in_z"):
        raise ProblemError(f"unknown condition41_mode {mode!r}")

    bounds = Bounds.from_mapping(_require(cfg, "bounds"))

    x_names = tuple(f"x{i + 1}" for i in range(d))
    z_names = tuple(f"z{i + 1}" for i in range(d))
    u_names = tuple(f"u{i + 1}" for i in range(u_grid.q))
    v_names = tuple(f"v{i + 1}" for i in range(v_grid.q))
    coeff_vars = ("t",) + x_names + u_names + v_names
    f_vars = ("t",) + x_names + ("y",) + z_names + u_names + v_names

    b_rows = tuple(_require(cfg, "b"))
    if len(b_rows) != d:
        raise ProblemError(f"b must list {d} expressions, got {len(b_rows)}")
    b = tuple(_parse_coeff(s, coeff_vars, f"b[{i}]") for i, s in enumerate(b_rows))

    sigma_rows = _require(cfg, "sigma")
    if len(sigma_rows) != d or any(len(r) != d for r in sigma_rows):
        raise ProblemError(f"sigma must be a {d}x{d} array of expressions")
    sigma = tuple(
        tuple(_parse_coeff(s, coeff_vars, f"sigma[{i}][{j}]") for j, s in enumerate(row))
        for i, row in enumerate(sigma_rows)
    )

    f = _parse_coeff(_require(cfg, "f"), f_vars, "f")
    phi = _parse_coeff(_require(cfg, "phi"), x_names, "phi")

    prob = Problem(
        name=name,
        d=d,
        T=horizon,
        b=b,
        sigma=sigma,
        f=f,
        phi=phi,
        u_grid=u_grid,
        v_grid=v_grid,
        domain=domain,
        condition41_mode=mode,
        bounds=bounds,
    )
    _validate(prob)
    return prob


def _validate(prob: Problem) -> None:
    control_vars = set(prob.u_names()) | set(prob.v_names())
    if prob.condition41_mode == "sigma_uncontrolled":
        for i, row in enumerate(prob.sigma):
            for j, e in enumerate(row):
                used = dsl.free_variables(e) & control_vars
                if used:
                    raise ConditionViolationError(
                        f"sigma[{i}][{j}] references control variables {sorted(used)} "
                        "under condition41_mode=sigma_uncontrolled"
                    )

    rng = np.random.default_rng(0)
    pts = _sample_points(prob, rng, 1000)
    try:
        if prob.condition41_mode == "f_linear_in_z":
            _probe_f_linear_in_z(prob)  # inside the try: it evaluates b and sigma too
        _eval_all_coefficients(prob, pts)
    except dsl.EvaluationError as exc:
        raise ProblemError(f"coefficient fails to evaluate on the domain: {exc}") from exc

    _cross_check_bounds(prob, rng)
    if prob.d == 2:
        _check_diagonal_dominance(prob, rng)


def _sample_points(prob: Problem, rng, n: int):
    t = rng.uniform(0.0, prob.T, size=n)
    x = rng.uniform(prob.domain.x_min, prob.domain.x_max, size=(n, prob.d))
    iu = rng.integers(0, prob.u_grid.n, size=n)
    iv = rng.integers(0, prob.v_grid.n, size=n)
    y = rng.normal(size=n)
    z = rng.normal(size=(n, prob.d))
    return t, x, iu, iv, y, z


def _eval_all_coefficients(prob: Problem, pts):
    t, x, iu, iv, y, z = pts
    prob.coefficients(t, x, iu, iv, y, z)
    prob.terminal_cost(x)


def _probe_f_linear_in_z(prob: Problem, n_points: int = 10, rel_tol: float = 1e-8) -> None:
    """Check f = f0(t,x,y,u,v) + f1(t).z by finite differences.

    Probes (a) vanishing second differences along random z directions and
    (b) equality of the z gradient across random (x, y, u, v) at fixed t.
    """
    rng = np.random.default_rng(1)
    t, x, iu, iv, y, z = _sample_points(prob, rng, n_points)
    h = 0.5
    scale = 1.0 + np.abs(_f_eval(prob, t, x, iu, iv, y, z))
    for _ in range(2):
        direction = rng.normal(size=(n_points, prob.d))
        up = _f_eval(prob, t, x, iu, iv, y, z + h * direction)
        dn = _f_eval(prob, t, x, iu, iv, y, z - h * direction)
        mid = _f_eval(prob, t, x, iu, iv, y, z)
        second = np.abs(up + dn - 2.0 * mid) / scale
        if np.any(second > rel_tol):
            raise ConditionViolationError(
                "f is not linear in z (second difference "
                f"{second.max():.3e} exceeds {rel_tol:.1e}) "
                "under condition41_mode=f_linear_in_z"
            )
    # gradient in z must not depend on (x, y, u, v)
    x2 = rng.uniform(prob.domain.x_min, prob.domain.x_max, size=(n_points, prob.d))
    iu2 = rng.integers(0, prob.u_grid.n, size=n_points)
    iv2 = rng.integers(0, prob.v_grid.n, size=n_points)
    y2 = rng.normal(size=n_points)
    for axis in range(prob.d):
        e = np.zeros((1, prob.d))
        e[0, axis] = h
        g1 = (_f_eval(prob, t, x, iu, iv, y, z + e) - _f_eval(prob, t, x, iu, iv, y, z)) / h
        g2 = (_f_eval(prob, t, x2, iu2, iv2, y2, z + e) - _f_eval(prob, t, x2, iu2, iv2, y2, z)) / h
        if np.any(np.abs(g1 - g2) / scale > rel_tol):
            raise ConditionViolationError(
                "the z coefficient of f depends on (x, y, u, v); expected the "
                "shape f0(t,x,y,u,v) + f1(t).z under condition41_mode=f_linear_in_z"
            )


def _f_eval(prob, t, x, iu, iv, y, z):
    return np.asarray(prob.coefficients(t, x, iu, iv, y, z)[2], dtype=float)


def _cross_check_bounds(prob: Problem, rng, n: int = 10_000) -> None:
    # sup_f is declared for f(., y=0, z=0, .); lip_y_f covers the y growth
    t, x, iu, iv, _, _ = _sample_points(prob, rng, n)
    b, sigma, f0 = prob.coefficients(t, x, iu, iv)
    sup_b = max((float(np.max(np.abs(e))) for e in b), default=0.0)
    sup_sigma = max(float(np.max(np.abs(e))) for row in sigma for e in row)
    sup_f0 = float(np.max(np.abs(f0)))
    msgs = []
    if sup_b > prob.bounds.sup_b * (1 + 1e-9) + 1e-12:
        msgs.append(f"|b| reaches {sup_b:.4g} > declared sup_b={prob.bounds.sup_b:.4g}")
    if sup_sigma > prob.bounds.sup_sigma * (1 + 1e-9) + 1e-12:
        msgs.append(
            f"|sigma| reaches {sup_sigma:.4g} > declared sup_sigma={prob.bounds.sup_sigma:.4g}"
        )
    if sup_f0 > prob.bounds.sup_f * (1 + 1e-9) + 1e-12:
        msgs.append(f"|f(.,0,.)| reaches {sup_f0:.4g} > declared sup_f={prob.bounds.sup_f:.4g}")
    for msg in msgs:
        warnings.warn(f"problem {prob.name!r}: declared bound violated on samples: {msg}")


def _check_diagonal_dominance(prob: Problem, rng, n: int = 1000) -> None:
    """d=2 cross terms need h-scaled diagonal dominance of sigma sigma^T.

    Without it no fixed 7-point stencil is monotone, so such problems are
    rejected at load time.  Checked on samples with unit grid aspect.
    """
    t, x, iu, iv, _, _ = _sample_points(prob, rng, n)
    sig = stack_entries(prob.coefficients(t, x, iu, iv)[1], (n,))
    a = np.einsum("nij,nkj->nik", sig, sig)
    off = np.abs(a[:, 0, 1])
    bad = (a[:, 0, 0] < off - 1e-12) | (a[:, 1, 1] < off - 1e-12)
    if np.any(bad):
        raise ProblemError(
            "sigma sigma^T is not diagonally dominant on samples; no monotone "
            "7-point stencil exists for this d=2 problem"
        )


# ---------------------------------------------------------------------------
# Stacking coefficient entries
# ---------------------------------------------------------------------------


def stack_entries(entries, shape) -> np.ndarray:
    """Broadcast coefficient entries to ``shape`` and stack them after it.

    b from :meth:`Problem.coefficients` gives shape + (d,), sigma gives
    shape + (d, d).
    """
    if isinstance(entries, tuple):
        return np.stack([stack_entries(e, shape) for e in entries], axis=len(shape))
    return np.broadcast_to(entries, shape)


# ---------------------------------------------------------------------------
# Benchmark catalog
# ---------------------------------------------------------------------------

CATALOG = {
    # bilinear running cost u*v: the classic game with no pure-strategy
    # value; mixed value is identically 0, pure envelopes are -(T-t), +(T-t)
    "uv_running_cost": {
        "name": "uv_running_cost",
        "d": 1,
        "T": 1.0,
        "b": ["0"],
        "sigma": [["1"]],
        "f": "u1*v1",
        "phi": "0",
        "U": {"points": [[-1.0], [1.0]]},
        "V": {"points": [[-1.0], [1.0]]},
        "domain": {"min": [-6.0], "max": [6.0], "boundary": "clamp"},
        "condition41_mode": "sigma_uncontrolled",
        "bounds": {
            "sup_b": 0.0,
            "sup_sigma": 1.0,
            "lip_y_f": 0.0,
            "sup_f": 1.0,
            "sup_phi": 0.0,
            "value_lip": 0.0,
        },
    },
    # control-free heat equation with cosine terminal data; the value is
    # exp(-(T-t)/2) cos(x), an analytic benchmark for the scheme
    "heat_cosine": {
        "name": "heat_cosine",
        "d": 1,
        "T": 1.0,
        "b": ["0"],
        "sigma": [["1"]],
        "f": "0",
        "phi": "cos(x1)",
        "U": {"points": [[0.0]]},
        "V": {"points": [[0.0]]},
        "domain": {"min": [-6.0], "max": [6.0], "boundary": "clamp"},
        "condition41_mode": "sigma_uncontrolled",
        "bounds": {
            "sup_b": 0.0,
            "sup_sigma": 1.0,
            "lip_y_f": 0.0,
            "sup_f": 0.0,
            "sup_phi": 1.0,
            "value_lip": 1.0,
        },
    },
    # bilinear drift u*v with linear terminal cost: mixed value is x for
    # all t, pure envelopes are x -+ (T-t).  phi is unbounded on R but
    # bounded on the truncated box; sup_phi declares the box supremum.
    "uv_drift": {
        "name": "uv_drift",
        "d": 1,
        "T": 1.0,
        "b": ["u1*v1"],
        "sigma": [["1"]],
        "f": "0",
        "phi": "x1",
        "U": {"points": [[-1.0], [1.0]]},
        "V": {"points": [[-1.0], [1.0]]},
        "domain": {"min": [-7.0], "max": [7.0], "boundary": "clamp"},
        "condition41_mode": "sigma_uncontrolled",
        "bounds": {
            "sup_b": 1.0,
            "sup_sigma": 1.0,
            "lip_y_f": 0.0,
            "sup_f": 0.0,
            "sup_phi": 7.0,
            "value_lip": 1.0,
        },
    },
    # uv_drift with phi = x1^2: the relaxed value is x^2 + T - t, the paper's
    # W^pi(t_j, x) = x^2 + (T - t_j) + sum_{i >= j} delta_i^2, and Monte Carlo
    # under the uniform (saddle) profile estimates x0^2 + T + sum_j delta_j^2
    "uv_square": {
        "name": "uv_square",
        "d": 1,
        "T": 1.0,
        "b": ["u1*v1"],
        "sigma": [["1"]],
        "f": "0",
        "phi": "x1*x1",
        "U": {"points": [[-1.0], [1.0]]},
        "V": {"points": [[-1.0], [1.0]]},
        "domain": {"min": [-7.0], "max": [7.0], "boundary": "clamp"},
        "condition41_mode": "sigma_uncontrolled",
        "bounds": {
            "sup_b": 1.0,
            "sup_sigma": 1.0,
            "lip_y_f": 0.0,
            "sup_f": 0.0,
            "sup_phi": 49.0,
            "value_lip": 14.0,
        },
    },
}
