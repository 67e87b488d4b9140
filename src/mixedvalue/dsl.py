"""Small arithmetic expression language for game coefficients.

Problem files specify drift, diffusion, running cost and terminal cost as
quoted strings, e.g. ``"exp(-(1-t)/2)*cos(x1)"``.  The grammar is

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | atom
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

with the usual precedence (unary minus binds tighter than '*' and '/',
which bind tighter than '+' and '-') and left associativity.  This is a
subset of Python's expression grammar, so Python's parser reads it and
:func:`parse` converts the resulting tree.  The conversion rejects every
other node, a NUMBER that is not decimal digits with at most one '.' and
an optional exponent (``1_0``, ``0x10``, ``1j``, ``True``), a call with
keywords or a trailing comma, and nesting deeper than 200 levels.  The
source must be ASCII without ``#``; any whitespace, newlines included,
separates tokens.  Trees are immutable after :func:`parse`, so
:func:`evaluate` is reentrant and safe to call concurrently.

``evaluate`` accepts scalar or numpy-array bindings; array bindings must
share a common shape and evaluation is then elementwise.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExpressionError",
    "ParseError",
    "UnknownIdentifierError",
    "ArityError",
    "EvaluationError",
    "UnboundVariableError",
    "DomainError",
    "parse",
    "evaluate",
    "pretty",
    "free_variables",
]

# Supported functions and their arities.
FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "abs": 1,
    "sqrt": 1,
    "tanh": 1,
    "min": 2,
    "max": 2,
}


class ExpressionError(ValueError):
    """Base class for every error raised by this module."""


class ParseError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    def __init__(self, name: str, offset: int):
        ParseError.__init__(self, f"unknown identifier {name!r}", offset)
        self.name = name


class ArityError(ParseError):
    def __init__(self, func: str, expected: int, got: int, offset: int):
        ParseError.__init__(
            self, f"function {func!r} takes {expected} argument(s), got {got}", offset
        )
        self.func = func


class EvaluationError(ExpressionError):
    """Raised by :func:`evaluate`; carries the offending subexpression."""

    def __init__(self, message: str, node: "Expr | None" = None):
        if node is not None:
            message = f"{message} in {pretty(node)!r}"
        super().__init__(message)
        self.node = node


class UnboundVariableError(EvaluationError):
    pass


class DomainError(EvaluationError):
    pass


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Expr = Union[Num, Var, Neg, BinOp, Call]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# ASCII whitespace as ``str.isspace`` has it, \x1c-\x1f included
_SPACES = str.maketrans({chr(c): " " for c in range(128) if chr(c).isspace()})
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", re.ASCII)
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
# nesting beyond this is an error; Python's parser nests at most 200 parentheses
_MAX_DEPTH = 200


def parse(source: str, allowed_vars: Iterable[str]) -> Expr:
    """Parse ``source`` into an expression tree.

    ``allowed_vars`` is the set of variable names the expression may
    reference; anything else raises :class:`UnknownIdentifierError`.
    """
    if not isinstance(source, str) or not source.strip():
        raise ParseError("empty expression", 0)
    text = source.translate(_SPACES).lstrip(" ")
    lead = len(source) - len(text)
    bad = re.search(r"[^ -~]|#", text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", lead + bad.start())
    try:
        return _tree(ast.parse(text, mode="eval").body, text, lead, frozenset(allowed_vars), 0)
    except SyntaxError as exc:
        raise ParseError(exc.msg, lead + max((exc.offset or 1) - 1, 0)) from None
    except (RecursionError, MemoryError):
        raise ParseError("expression too deeply nested", lead) from None


def _tree(node, text, lead, allowed, depth) -> Expr:
    """Convert one node of Python's tree, allowing only the grammar above."""
    at, segment = lead + node.col_offset, text[node.col_offset:node.end_col_offset]
    if depth > _MAX_DEPTH:
        raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels", at)
    sub = lambda child: _tree(child, text, lead, allowed, depth + 1)
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(segment):
        return Num(float(segment))
    elif isinstance(node, ast.Name):
        if node.id in FUNCTIONS:
            raise ParseError(f"expected '(' after function {node.id!r}",
                             lead + node.end_col_offset)
        if node.id not in allowed:
            raise UnknownIdentifierError(node.id, at)
        return Var(node.id)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return Neg(sub(node.operand))
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return BinOp(_BINOPS[type(node.op)], sub(node.left), sub(node.right))
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name, args = node.func.id, node.args
        if name not in FUNCTIONS and name not in allowed:
            raise UnknownIdentifierError(name, at)
        # (cos)(x1) starts before the name, and cos(x1,) ends in a comma
        if (name in FUNCTIONS and not node.keywords and node.col_offset == node.func.col_offset
                and not text[:node.end_col_offset - 1].rstrip().endswith(",")):
            if len(args) != FUNCTIONS[name]:
                raise ArityError(name, FUNCTIONS[name], len(args), at)
            return Call(name, tuple(sub(a) for a in args))
    raise ParseError(f"unsupported syntax {segment!r}", at)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_UNARY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "tanh": np.tanh,
}


def evaluate(expr: Expr, bindings: Mapping[str, float]) -> float:
    """Evaluate ``expr`` under ``bindings`` in IEEE double precision.

    Bindings may be scalars or numpy arrays of a common shape.  Division
    by zero and square roots of negative numbers raise :class:`DomainError`
    naming the offending subexpression, as does any non-finite result.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        result = _eval(expr, bindings)
    if not np.all(np.isfinite(result)):
        raise DomainError("non-finite result", expr)
    return result


def _eval(expr, bindings):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return bindings[expr.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {expr.name!r}", expr) from None
    if isinstance(expr, Neg):
        return -_eval(expr.operand, bindings)
    if isinstance(expr, BinOp):
        left = _eval(expr.left, bindings)
        right = _eval(expr.right, bindings)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        # division: a zero denominator is a modelling error, not +-inf
        if np.any(right == 0):
            raise DomainError("division by zero", expr)
        return left / right
    if isinstance(expr, Call):
        if expr.func == "sqrt":
            arg = _eval(expr.args[0], bindings)
            if np.any(arg < 0):
                raise DomainError("square root of negative number", expr)
            return np.sqrt(arg)
        if expr.func in ("min", "max"):
            a = _eval(expr.args[0], bindings)
            b = _eval(expr.args[1], bindings)
            return np.minimum(a, b) if expr.func == "min" else np.maximum(a, b)
        return _UNARY_FUNCS[expr.func](_eval(expr.args[0], bindings))
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Pretty printing and inspection
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_ATOM = 4


def _prec(expr) -> int:
    if isinstance(expr, BinOp):
        return _PREC_ADD if expr.op in "+-" else _PREC_MUL
    if isinstance(expr, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def pretty(expr: Expr) -> str:
    """Render ``expr`` as a string that reparses to an identical tree."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        inner = pretty(expr.operand)
        if _prec(expr.operand) < _PREC_NEG:
            inner = f"({inner})"
        return "-" + inner
    if isinstance(expr, BinOp):
        me = _prec(expr)
        left = pretty(expr.left)
        if _prec(expr.left) < me:
            left = f"({left})"
        right = pretty(expr.right)
        # left associativity: parenthesize right child at equal precedence
        if _prec(expr.right) <= me:
            right = f"({right})"
        return f"{left}{expr.op}{right}"
    if isinstance(expr, Call):
        return f"{expr.func}({','.join(pretty(a) for a in expr.args)})"
    raise TypeError(f"not an expression node: {expr!r}")


def free_variables(expr: Expr) -> frozenset:
    """Set of variable names occurring in ``expr``."""
    if isinstance(expr, Num):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Neg):
        return free_variables(expr.operand)
    if isinstance(expr, BinOp):
        return free_variables(expr.left) | free_variables(expr.right)
    if isinstance(expr, Call):
        out = frozenset()
        for a in expr.args:
            out |= free_variables(a)
        return out
    raise TypeError(f"not an expression node: {expr!r}")
