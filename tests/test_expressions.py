"""Parser, evaluator and symbolic derivatives of the expression language."""

import numpy as np
import pytest

from predissoc import differentiate, parse_expression
from predissoc.errors import EvalDomainError, ExpressionError


def test_literals_variable_and_gaussian_well():
    expr = parse_expression("2 - 2*exp(-(x+2)^2)")
    assert expr(-2.0) == 0.0
    assert expr(0.0) == pytest.approx(1.9633687222225316, rel=1e-15)
    assert parse_expression("x")(3.25) == 3.25
    assert parse_expression("7.5")(123.0) == 7.5


def test_tanh_value():
    expr = parse_expression("tanh(2*x)")
    assert expr(0.5) == pytest.approx(np.tanh(1.0), rel=1e-15)
    assert expr(0.5) == pytest.approx(0.76159416, abs=1e-8)


def test_precedence_and_unary_minus():
    assert parse_expression("-x^2")(3.0) == -9.0
    assert parse_expression("2 - -x")(1.0) == 3.0
    assert parse_expression("2*x + 3*x^2 - 4/x")(2.0) == pytest.approx(14.0, rel=1e-15)
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
    assert expr(z) == pytest.approx(2.0 - 2.0 * np.exp(-((z + 2.0) ** 2)), rel=1e-15)


def test_derivative_closed_forms():
    dwell = differentiate(parse_expression("2 - 2*exp(-(x+2)^2)"))
    # chain rule: 4(x+2) e^{-(x+2)^2}, which is 8 e^{-4} at x = 0
    assert dwell(0.0) == pytest.approx(8.0 * np.exp(-4.0), rel=1e-14)
    assert dwell(0.0) == pytest.approx(0.14652511, abs=1e-8)

    assert differentiate(parse_expression("tanh(x)"))(0.0) == 1.0
    assert differentiate(parse_expression("x^3"))(2.0) == 12.0
    assert differentiate(parse_expression("sin(x)"))(0.7) == pytest.approx(np.cos(0.7), rel=1e-15)
    assert differentiate(parse_expression("cos(x)"))(0.7) == pytest.approx(-np.sin(0.7), rel=1e-15)
    # quotient rule: d/dx x/(1+x^2) = (1-x^2)/(1+x^2)^2
    dq = differentiate(parse_expression("x/(1 + x^2)"))
    assert dq(0.5) == pytest.approx(0.48, rel=1e-14)


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
    assert expr(x) == pytest.approx(np.exp(np.tanh(np.sin(x))), rel=1e-15)
    deriv = differentiate(expr)
    d = 1e-6
    fd = (expr(x + d) - expr(x - d)) / (2.0 * d)
    assert deriv(x) == pytest.approx(fd, rel=1e-8)


def test_scientific_notation_and_whitespace():
    assert parse_expression("1e-3 + 2.5E+2*x")(1.0) == pytest.approx(250.001, rel=1e-15)
    assert parse_expression("  .5 * x  ")(2.0) == 1.0
