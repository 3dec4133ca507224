"""Parser, evaluator and symbolic derivatives of the expression language."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from predissoc import differentiate, parse_expression
from predissoc.errors import EvalDomainError, ExpressionError
from predissoc.expressions import (
    _FUNCTIONS, AnalyticExpr, Add, Call, Div, Mul, Neg, Num, Pow, Sub, Var,
)


def test_literals_variable_and_gaussian_well():
    expr = parse_expression("2 - 2*exp(-(x+2)^2)")
    assert expr(-2.0) == 0.0
    assert expr(0.0) == pytest.approx(1.9633687222225316, rel=1e-15, abs=0.0)
    assert parse_expression("x")(3.25) == 3.25
    assert parse_expression("7.5")(123.0) == 7.5


def test_tanh_value():
    expr = parse_expression("tanh(2*x)")
    assert expr(0.5) == pytest.approx(np.tanh(1.0), rel=1e-15, abs=0.0)
    assert expr(0.5) == pytest.approx(0.76159416, abs=1e-8)


def test_precedence_and_unary_minus():
    assert parse_expression("-x^2")(3.0) == -9.0
    assert parse_expression("2 - -x")(1.0) == 3.0
    assert parse_expression("2*x + 3*x^2 - 4/x")(2.0) == pytest.approx(14.0, rel=1e-15, abs=0.0)
    assert parse_expression("(1 + 2)*x")(2.0) == 6.0
    # binary minus associates left: 8 - 4 - 2 = 2, not 6
    assert parse_expression("8 - 4 - 2")(0.0) == 2.0


def test_integer_exponents():
    assert parse_expression("x^-2")(2.0) == 0.25
    assert parse_expression("x^(3)")(2.0) == 8.0
    assert parse_expression("x^0")(5.0) == 1.0
    # a parenthesized constant expression folds to an integer
    assert parse_expression("x^(1+1)")(3.0) == 9.0


def test_non_integer_exponents_rejected():
    for text in ("x^1.5", "x^x", "x^(1/2)", "x^(x-x)"):
        with pytest.raises(ExpressionError):
            parse_expression(text)


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExpressionError) as err:
        parse_expression("2 +")
    assert err.value.offset == 3
    with pytest.raises(ExpressionError) as err:
        parse_expression("2 $ 3")
    assert err.value.offset == 2
    with pytest.raises(ExpressionError) as err:
        parse_expression("foo(x)")
    assert err.value.offset == 0
    with pytest.raises(ExpressionError):
        parse_expression("(x")
    with pytest.raises(ExpressionError):
        parse_expression("x) + 1")


def test_unknown_function_rejected():
    with pytest.raises(ExpressionError, match="unknown identifier"):
        parse_expression("sinh(x)")


def test_malformed_number_rejected():
    with pytest.raises(ExpressionError, match="malformed number"):
        parse_expression("2..5 + x")


def test_division_by_zero_raises():
    with pytest.raises(EvalDomainError):
        parse_expression("1/x")(0.0)
    with pytest.raises(EvalDomainError):
        parse_expression("1/(x - x)")(4.0)
    with pytest.raises(EvalDomainError):
        parse_expression("x^-1")(0.0)
    with pytest.raises(EvalDomainError):
        parse_expression("x/0")(np.array([1.0, 2.0]))
    with pytest.raises(EvalDomainError):
        parse_expression("1/(x + 1)")(np.array([0.0, -1.0]))


def test_nonzero_literal_denominator_skips_zero_check(monkeypatch):
    """Only a denominator that can vanish is tested for zeros."""
    tested = []
    any_ = np.any
    monkeypatch.setattr(np, "any", lambda a: tested.append(a) or any_(a))
    xs = np.linspace(-6.0, 2.0, 9)
    assert np.array_equal(parse_expression("((x+4)/3)^2")(xs), ((xs + 4) / 3) ** 2)
    assert tested == []
    parse_expression("1/(x + 7)")(xs)
    assert len(tested) == 1


def test_array_and_complex_evaluation():
    expr = parse_expression("2 - 2*exp(-(x+2)^2)")
    xs = np.linspace(-4.0, 4.0, 41)
    assert np.allclose(expr(xs), 2.0 - 2.0 * np.exp(-((xs + 2.0) ** 2)), rtol=1e-15)
    assert expr(xs).dtype == np.float64
    # integer powers keep the tree single valued off the real axis
    z = 0.3 + 0.1j
    assert expr(z) == pytest.approx(2.0 - 2.0 * np.exp(-((z + 2.0) ** 2)), rel=1e-15, abs=0.0)


def test_derivative_closed_forms():
    dwell = differentiate(parse_expression("2 - 2*exp(-(x+2)^2)"))
    # chain rule: 4(x+2) e^{-(x+2)^2}, which is 8 e^{-4} at x = 0
    assert dwell(0.0) == pytest.approx(8.0 * np.exp(-4.0), rel=1e-14, abs=0.0)
    assert dwell(0.0) == pytest.approx(0.14652511, abs=1e-8)

    assert differentiate(parse_expression("tanh(x)"))(0.0) == 1.0
    assert differentiate(parse_expression("x^3"))(2.0) == 12.0
    assert differentiate(parse_expression("sin(x)"))(0.7) == pytest.approx(np.cos(0.7),
                                                                           rel=1e-15, abs=0.0)
    assert differentiate(parse_expression("cos(x)"))(0.7) == pytest.approx(-np.sin(0.7),
                                                                           rel=1e-15, abs=0.0)
    # quotient rule: d/dx x/(1+x^2) = (1-x^2)/(1+x^2)^2
    dq = differentiate(parse_expression("x/(1 + x^2)"))
    assert dq(0.5) == pytest.approx(0.48, rel=1e-14, abs=0.0)


def test_derivative_of_constant_vanishes():
    d = differentiate(parse_expression("3.5 + 0*x"))
    xs = np.linspace(-2.0, 2.0, 7)
    assert np.all(np.asarray(d(xs)) == 0.0)


def test_derivative_matches_finite_differences():
    """Symbolic derivatives agree with centered differences to 1e-6."""
    rng = np.random.default_rng(20260818)
    sources = [
        "2 - 2*exp(-(x+2)^2)",
        "1.9633687222225316 - 1.2*tanh(x)",
        "x^3 - 2*x + 1/(2 + x^2)",
        "sin(2*x)*cos(x) + exp(tanh(x))",
        "-x^4/(1 + exp(-x))",
    ]
    d = 1e-6
    for source in sources:
        expr = parse_expression(source)
        deriv = differentiate(expr)
        for x in rng.uniform(-2.5, 2.5, size=8):
            fd = (expr(x + d) - expr(x - d)) / (2.0 * d)
            assert deriv(x) == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_str_round_trip():
    """Printing a tree and reparsing it reproduces the same function."""
    rng = np.random.default_rng(7)
    sources = [
        "2 - 2*exp(-(x+2)^2)",
        "-(x + 1)*(x - 1)/(x^2 + 1)",
        "tanh(x)^2 - sin(x - 0.5)^3",
        "x^-2 + 2^3",
    ]
    xs = rng.uniform(1.0, 3.0, size=16)
    for source in sources:
        tree = parse_expression(source)
        redone = parse_expression(str(tree))
        assert np.allclose(redone(xs), tree(xs), rtol=1e-15)
        # round trip is idempotent from the first print onward
        assert str(parse_expression(str(tree))) == str(tree)
        # derivatives survive the round trip too
        dt, dr = differentiate(tree), differentiate(redone)
        assert np.allclose(dr(xs), dt(xs), rtol=1e-15)


def test_nested_calls():
    expr = parse_expression("exp(tanh(sin(x)))")
    x = 0.9
    assert expr(x) == pytest.approx(np.exp(np.tanh(np.sin(x))), rel=1e-15, abs=0.0)
    deriv = differentiate(expr)
    d = 1e-6
    fd = (expr(x + d) - expr(x - d)) / (2.0 * d)
    assert deriv(x) == pytest.approx(fd, rel=1e-8, abs=0.0)


def test_scientific_notation_and_whitespace():
    assert parse_expression("1e-3 + 2.5E+2*x")(1.0) == pytest.approx(250.001, rel=1e-15, abs=0.0)
    assert parse_expression("  .5 * x  ")(2.0) == 1.0


def test_derivative_folds_literal_subtrees():
    """Derivative nodes over literals only become one Num of the same value."""
    deriv = differentiate(parse_expression("2 - 2*exp(-((x+4)/3)^2)"))
    assert str(deriv) == ("-(2.0*(exp(-((x + 4.0)/3.0)^2)"
                          "*-(2.0*((x + 4.0)/3.0)*0.3333333333333333)))")
    # the same derivative before folding; the parser itself folds nothing
    unfolded = parse_expression(
        "-(2.0*(exp(-((x + 4.0)/3.0)^2)*-(2.0*((x + 4.0)/3.0)*(3.0/3.0^2))))")
    assert str(unfolded).endswith("*(3.0/3.0^2))))")
    xs = np.linspace(-12.0, 12.0, 2001)
    assert np.array_equal(deriv(xs), unfolded(xs))
    # a literal node that cannot be evaluated is kept, to fail where it did
    kept = differentiate(parse_expression("x/0"))
    assert kept == Div(Num(0.0), Num(0.0))
    with pytest.raises(EvalDomainError):
        kept(1.0)


# Random trees over the whole language, with the non-negative literals the
# parser produces (a leading minus parses as Neg).
_TREES = st.recursive(
    st.one_of(st.just(Var()), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]).map(Num)),
    lambda kids: st.one_of(
        st.builds(Add, kids, kids), st.builds(Sub, kids, kids),
        st.builds(Mul, kids, kids), st.builds(Div, kids, kids),
        st.builds(Neg, kids), st.builds(Pow, kids, st.integers(-2, 3)),
        st.builds(Call, st.sampled_from(sorted(_FUNCTIONS)), kids),
    ),
    max_leaves=8,
)
_XS = np.linspace(-1.3, 1.7, 7)


def _values(tree, xs):
    """Values of ``tree`` at ``xs``, or the error type evaluating them raises."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(tree(xs))
    except EvalDomainError as exc:
        return type(exc)


def _children(node):
    return [v for v in vars(node).values() if isinstance(v, AnalyticExpr)]


def _subtrees(tree):
    yield tree
    for child in _children(tree):
        yield from _subtrees(child)


@settings(max_examples=300, deadline=None)
@given(tree=_TREES)
def test_print_parse_round_trip_random_trees(tree):
    redone = parse_expression(str(tree))
    assert redone == tree
    before, after = _values(tree, _XS), _values(redone, _XS)
    if isinstance(before, type):
        assert after is before
    else:
        assert np.array_equal(after, before, equal_nan=True)


@settings(max_examples=300, deadline=None)
@given(tree=_TREES)
def test_derivative_matches_complex_step_random_trees(tree):
    """d/dx f = Im f(x + i eta) / eta + O(eta^2) for the real-analytic trees."""
    eta = 1e-20
    vals, step = _values(tree, _XS), _values(tree, _XS + 1j * eta)
    deriv = _values(differentiate(tree), _XS)
    assume(not any(isinstance(v, type) for v in (vals, step, deriv)))
    assume(np.all(np.isfinite(step)) and np.all(np.abs(step.real) < 1e6))
    assume(np.all(np.isfinite(deriv)) and np.all(np.abs(deriv) < 1e6))
    assert np.allclose(deriv, step.imag / eta, rtol=1e-9, atol=1e-9)


@settings(max_examples=300, deadline=None)
@given(tree=_TREES)
def test_derivative_builds_no_literal_operator_node(tree):
    """An operator node over literals only in a derivative is a subtree
    copied from the input or one that cannot be evaluated (kept so that it
    fails where it did); differentiation builds no other."""
    copied = set(_subtrees(tree))
    for node in _subtrees(differentiate(tree)):
        kids = _children(node)
        if kids and all(isinstance(k, Num) for k in kids) and node not in copied:
            assert _values(node, 0.0) is EvalDomainError, f"{node} in d/dx {tree}"


@settings(max_examples=500, deadline=None)
@given(tree=_TREES, x=st.floats(-3.0, 3.0))
def test_float_evaluates_as_inside_an_array(tree, x):
    """A float gets bit for bit the value it gets as an element of an
    array (a Python float pow and numpy's square differ in the last bit
    for some arguments), and comes out as a float."""
    try:
        with np.errstate(all="ignore"):
            scalar = tree(x)
            # a tree without x returns a scalar for an array too
            element = np.broadcast_to(tree(np.array([x, 0.25])), (2,))[0]
    except EvalDomainError:
        return
    assert isinstance(scalar, float)
    assert np.array_equal(scalar, element, equal_nan=True)


def test_power_of_scalar_equals_power_in_array():
    """(x + 2)^n at floats where C pow() and numpy's power differ."""
    xs = np.random.default_rng(0).uniform(-25.0, 5.0, 2000)
    for n in (2, 3, -1, -2):
        expr = Pow(Add(Var(), Num(2.0)), n)
        scalars = np.array([expr(float(x)) for x in xs])
        assert np.array_equal(scalars, expr(xs))
        assert type(expr(1.5)) is float
