import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedvalue import dsl
from mixedvalue.dsl import (
    ArityError,
    BinOp,
    Call,
    DomainError,
    Neg,
    Num,
    ParseError,
    UnboundVariableError,
    UnknownIdentifierError,
    Var,
    evaluate,
    free_variables,
    parse,
    pretty,
)

VARS = ("t", "x1", "x2", "y", "z1", "u1", "v1")


class TestParse:
    def test_product_of_variables(self):
        tree = parse("u1*v1", {"u1", "v1"})
        assert tree == BinOp("*", Var("u1"), Var("v1"))

    def test_single_call(self):
        assert parse("cos(x1)", {"x1"}) == Call("cos", (Var("x1"),))

    def test_precedence(self):
        assert evaluate(parse("1+2*3", ()), {}) == 7

    def test_unary_minus_binds_tighter_than_mul(self):
        # -x*y parses as (-x)*y
        tree = parse("-x1*x2", {"x1", "x2"})
        assert tree == BinOp("*", Neg(Var("x1")), Var("x2"))

    def test_left_associativity(self):
        assert evaluate(parse("8-3-2", ()), {}) == 3
        assert evaluate(parse("8/2/2", ()), {}) == 2

    def test_whitespace_insensitive(self):
        assert parse(" u1 * v1 ", {"u1", "v1"}) == parse("u1*v1", {"u1", "v1"})

    def test_scientific_notation(self):
        assert evaluate(parse("1e-2 + 2.5E+1", ()), {}) == pytest.approx(25.01)

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("1 + * 2", ())
        assert exc.value.offset == 4

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("cos(x1", {"x1"})

    def test_unknown_identifier_named(self):
        with pytest.raises(UnknownIdentifierError) as exc:
            parse("x1 + bogus", {"x1"})
        assert exc.value.name == "bogus"

    def test_arity_error(self):
        with pytest.raises(ArityError):
            parse("min(x1)", {"x1"})
        with pytest.raises(ArityError):
            parse("cos(x1, x1)", {"x1"})

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse("", ())
        with pytest.raises(ParseError):
            parse("   ", ())

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("1+2)", ())


# the language boundary: sources Python's parser reads differently from the
# grammar, or Python-only syntax; source -> tree
ACCEPTED = {
    "\n x1 *\t( t\r\n+ 1 )\n": BinOp("*", Var("x1"), BinOp("+", Var("t"), Num(1.0))),
    "\x0cx1\x1c+\x0bt": BinOp("+", Var("x1"), Var("t")),
    ".5": Num(0.5),
    "1.": Num(1.0),
    "1e-2": Num(0.01),
    "1.e5": Num(1e5),
    "0.5": Num(0.5),
    "1e05": Num(1e5),
    "00": Num(0.0),
    "--x1": Neg(Neg(Var("x1"))),
    "cos (x1)": Call("cos", (Var("x1"),)),
    "min((x1), -(t))": Call("min", (Var("x1"), Neg(Var("t")))),
}

REJECTED = [
    "x1 # c", "cos(x1,)", "cos((x1),)", "1_0", "0x10", "1j", "True", "None", "x1**2", "x1%2",
    "x1//2", "+x1", "~x1", "(x1, t)", "min(x1=1,t=2)", "min(*x1)", "\uff581", "x\u00b9",
    "x1 if t else 0", "cos", "cos+1", "x1(2)", "(cos)(x1)", "cos(x1)(t)", "x1 < t", "x1.real",
    "[x1]", "'x1'", "lambda: x1", "x1 and t", "x1\\\n+1", "x1\x00", "x1;", "1..2", "2x1",
]

# what the parent's hand-written parser accepted and Python's parser does not:
# integer literals with leading zeros, non-ASCII spaces and digits, and
# nesting past 200 levels (Python's tokenizer nests at most 200 parentheses)
NARROWED = [
    "01", "x1+007", "\xa0x1", "x1\u2003+t", "\u0661", "-" * 201 + "x1",
    "(" * 201 + "x1" + ")" * 201, "+".join(["x1"] * 202), "cos(" * 201 + "x1" + ")" * 201,
    # 4 300 digits is Python's limit for an integer literal; longer ones read as inf
    "1" * 4301,
]
DEEPEST = ["-" * 200 + "x1", "(" * 200 + "x1" + ")" * 200, "+".join(["x1"] * 201),
           "cos(" * 200 + "x1" + ")" * 200]


class TestLanguageBoundary:
    @pytest.mark.parametrize("source", sorted(ACCEPTED))
    def test_accepted(self, source):
        assert parse(source, VARS) == ACCEPTED[source]

    @pytest.mark.parametrize("source", REJECTED)
    def test_rejected(self, source):
        with pytest.raises(dsl.ExpressionError):
            parse(source, VARS)

    @pytest.mark.parametrize("source", NARROWED, ids=range(len(NARROWED)))
    def test_narrowed(self, source):
        with pytest.raises(ParseError):
            parse(source, VARS)

    @pytest.mark.parametrize("source", DEEPEST, ids=["minus", "parentheses", "sum", "calls"])
    def test_deepest_accepted(self, source):
        assert free_variables(parse(source, VARS)) == {"x1"}


class TestEvaluate:
    def test_product(self):
        assert evaluate(parse("u1*v1", VARS), {"u1": -1.0, "v1": 1.0}) == -1.0

    def test_cos_at_zero(self):
        assert evaluate(parse("cos(x1)", VARS), {"x1": 0.0}) == 1.0

    def test_heat_kernel_value(self):
        # independent reference: exp(-0.5) = 0.6065306597126334
        e = parse("exp(-(1-t)/2)*cos(x1)", VARS)
        got = evaluate(e, {"t": 0.0, "x1": 0.0})
        assert got == pytest.approx(0.6065306597126334, abs=1e-15)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(parse("x1+x2", VARS), {"x1": 1.0})

    def test_division_by_zero(self):
        with pytest.raises(DomainError) as exc:
            evaluate(parse("1/(x1-1)", VARS), {"x1": 1.0})
        assert "x1-1" in str(exc.value)

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError):
            evaluate(parse("sqrt(x1)", VARS), {"x1": -4.0})

    def test_overflow_reported(self):
        with pytest.raises(DomainError):
            evaluate(parse("exp(x1)", VARS), {"x1": 1e6})

    def test_vectorized_bindings(self):
        e = parse("x1*x1 + u1", VARS)
        x = np.linspace(-1, 1, 7)
        got = evaluate(e, {"x1": x, "u1": 2.0})
        assert np.allclose(got, x * x + 2.0)

    def test_min_max(self):
        assert evaluate(parse("min(1, 2)", ()), {}) == 1.0
        assert evaluate(parse("max(1, 2)", ()), {}) == 2.0


# ---------------------------------------------------------------------------
# Grammar fuzzer properties
# ---------------------------------------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False).map(Num),
    st.sampled_from(VARS).map(Var),
)


def _exprs(children):
    unary = st.sampled_from(["sin", "cos", "exp", "abs", "tanh"])
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        st.tuples(unary, children).map(lambda t: Call(t[0], (t[1],))),
        st.tuples(st.sampled_from(["min", "max"]), children, children).map(
            lambda t: Call(t[0], (t[1], t[2]))
        ),
    )


_expr_trees = st.recursive(_leaf, _exprs, max_leaves=25)


@given(_expr_trees)
@settings(max_examples=300, deadline=None)
def test_pretty_print_round_trip(tree):
    assert parse(pretty(tree), VARS) == tree


@given(_expr_trees)
@settings(max_examples=200, deadline=None)
def test_parse_total_on_fuzzer_output_and_rejects_paren_deletion(tree):
    src = pretty(tree)
    parse(src, VARS)  # total on generated sources
    if ")" in src:
        mutated = src[::-1].replace(")", "", 1)[::-1]  # drop last ')'
        with pytest.raises(dsl.ExpressionError):
            parse(mutated, VARS)


@given(_expr_trees, st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_algebraic_identities(tree, seed):
    rng = np.random.default_rng(seed)
    bindings = {name: rng.uniform(-3, 3) for name in VARS}
    try:
        base = evaluate(tree, bindings)
    except DomainError:
        return  # unlucky evaluation point; identity checks need a finite base
    assert evaluate(BinOp("+", tree, Num(0.0)), bindings) == base
    assert evaluate(BinOp("*", tree, Num(1.0)), bindings) == base


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_min_le_max(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-10, 10, 2)
    lo = evaluate(parse("min(x1, x2)", VARS), {"x1": a, "x2": b})
    hi = evaluate(parse("max(x1, x2)", VARS), {"x1": a, "x2": b})
    assert lo <= hi


def test_free_variables():
    e = parse("u1*v1 + cos(x1) - t", VARS)
    assert free_variables(e) == frozenset({"u1", "v1", "x1", "t"})


def test_expr_is_hashable_and_immutable():
    e = parse("x1+1", VARS)
    hash(e)
    with pytest.raises(Exception):
        e.left = Num(2.0)
