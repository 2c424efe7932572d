"""Parser, differentiation, zero-decision and evaluation of the exact kernel."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from hydrobrackets.expr import (
    Expr,
    NonIntegerExponentError,
    ParseError,
    TranscendentalNotAllowedError,
    UnassignedVariableError,
    UnknownVariableError,
    Zeroness,
    is_zero,
    parse,
)

UV = ("u1", "u2")


def test_parse_polynomial_two_monomials():
    e = parse("u1^2*u2 - 1/2", UV)
    num, den = e.normal_form()
    assert len(num.terms) == 2
    assert den.const_value() == 2  # canonical integer-coefficient form


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariableError) as exc:
        parse("u3", UV)
    assert exc.value.offset == 0


def test_parse_decimal_becomes_exact_rational():
    from hydrobrackets.numsim import Grid, sample_initial_data

    assert str(parse("0.1*u1 + 2.50", UV)) == "1/10*u1 + 5/2"
    e = parse("0.1*sin(x)", ("x",), initial_data=True)
    # oracle: sample at x = pi/2, where the sine factor is exactly 1
    assert sample_initial_data(Grid(8, 2 * math.pi), [e]).v[0][2] == 0.1


def test_parse_decimal_in_rational_context():
    e = parse("0.25*u1", UV)
    assert e.evaluate({"u1": Fraction(4), "u2": 0}) == Fraction(1)


def test_transcendental_rejected_outside_initial_data():
    with pytest.raises(TranscendentalNotAllowedError):
        parse("sin(u1)", UV)


def test_non_integer_exponent():
    with pytest.raises(NonIntegerExponentError):
        parse("u1^1.5", UV)
    with pytest.raises(NonIntegerExponentError):
        parse("u1^u2", UV)


def test_negative_integer_exponent():
    e = parse("u1^(-2)", UV)
    assert e.evaluate({"u1": Fraction(2), "u2": 0}) == Fraction(1, 4)


def test_syntax_error_carries_offset():
    with pytest.raises(ParseError) as exc:
        parse("u1 + * u2", UV)
    assert exc.value.offset == 5


def test_whitespace_insensitive():
    a = parse(" u1 ^ 2\t* u2", UV)
    b = parse("u1^2*u2", UV)
    assert is_zero(a - b) is Zeroness.ZERO


def test_differentiate_basic():
    e = parse("u1^2*u2", UV)
    d = e.diff("u1")
    assert is_zero(d - parse("2*u1*u2", UV)) is Zeroness.ZERO
    assert is_zero(Expr.const(7).diff("u1")) is Zeroness.ZERO


def test_differentiate_power_matches_finite_differences():
    # oracle: central finite difference with step 1e-6
    e = parse("(u1+u2)^3", UV)
    d = e.diff("u2")
    assert d.evaluate({"u1": 1, "u2": 1}) == 12
    h = 1e-6
    fd = (
        e.evaluate({"u1": 1.0, "u2": 1.0 + h}) - e.evaluate({"u1": 1.0, "u2": 1.0 - h})
    ) / (2 * h)
    assert abs(fd - 12) < 1e-5


def test_is_zero_binomial_identity():
    e = parse("(u1+u2)^2 - u1^2 - 2*u1*u2 - u2^2", UV)
    assert is_zero(e) is Zeroness.ZERO


def test_is_zero_commutativity():
    assert is_zero(parse("u1*u2 - u2*u1", UV)) is Zeroness.ZERO


def test_is_zero_nonzero():
    e = parse("u1^2 - u2", UV)
    assert is_zero(e) is Zeroness.NONZERO
    assert e.evaluate({"u1": 1, "u2": 0}) == 1


def test_evaluate_examples():
    e = parse("u1^2 + u2", UV)
    assert e.evaluate({"u1": 2, "u2": 3}) == 7
    with pytest.raises(ZeroDivisionError):
        parse("1/u1", UV).evaluate({"u1": 0, "u2": 1})
    with pytest.raises(UnassignedVariableError):
        e.evaluate({"u1": 2})
    with pytest.raises(UnassignedVariableError):
        parse("1/u2", UV).evaluate({"u1": 2})


def test_rational_arithmetic_stays_exact():
    e = parse("1/3*u1 + 1/6", UV)
    assert e.evaluate({"u1": Fraction(1, 2), "u2": 0}) == Fraction(1, 3)


# -- randomized invariants ---------------------------------------------------


def _random_poly(rng, nvars=3, degree=4, terms=6) -> Expr:
    vars = [f"u{i + 1}" for i in range(nvars)]
    e = Expr.const(0)
    for _ in range(terms):
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        mono = Expr.const(c)
        budget = rng.randint(0, degree)
        for _ in range(budget):
            mono = mono * Expr.var(rng.choice(vars))
        e = e + mono
    return e


def test_product_commutativity_normal_forms():
    rng = random.Random(101)
    for _ in range(25):
        p, q = _random_poly(rng), _random_poly(rng)
        assert (p * q).normal_form() == (q * p).normal_form()


def test_product_rule_normal_forms():
    rng = random.Random(202)
    for _ in range(25):
        p, q = _random_poly(rng), _random_poly(rng)
        lhs = (p * q).diff("u1")
        rhs = q * p.diff("u1") + p * q.diff("u1")
        assert lhs.normal_form() == rhs.normal_form()


def test_self_difference_is_zero():
    rng = random.Random(303)
    for _ in range(25):
        p = _random_poly(rng)
        assert is_zero(p - p) is Zeroness.ZERO


def test_derivative_matches_finite_differences_randomized():
    rng = random.Random(404)
    for _ in range(10):
        p = _random_poly(rng)
        d = p.diff("u2")
        point = {v: rng.uniform(0.2, 0.8) for v in ("u1", "u2", "u3")}
        h = 1e-6
        up = dict(point, u2=point["u2"] + h)
        dn = dict(point, u2=point["u2"] - h)
        fd = (p.evaluate(up) - p.evaluate(dn)) / (2 * h)
        exact = d.evaluate(point)
        scale = max(1.0, abs(exact))
        assert abs(fd - exact) / scale < 1e-5


def test_quotient_normalization_and_equality():
    a = parse("(u1^2 - u2^2)/(u1 - u2)", UV)
    b = parse("u1 + u2", UV)
    assert is_zero(a - b) is Zeroness.ZERO
    assert a.normal_form() == b.normal_form()


def test_render_round_trip():
    rng = random.Random(505)
    for _ in range(20):
        p = _random_poly(rng)
        q = _random_poly(rng)
        e = p / (q + Expr.const(1)) if not (q + Expr.const(1)).is_zero() else p
        back = parse(str(e), ("u1", "u2", "u3"))
        assert is_zero(back - e) is Zeroness.ZERO


def test_zero_operands_return_the_other_operand():
    x = parse("u1^2 - u2/3", UV)
    zero = Expr.const(0)
    assert x + zero is x and zero + x is x and x - zero is x
    assert x * zero is zero and zero * x is zero and -zero is zero
    assert str(x + 0) == str(x) and str(0 * x) == "0"


# -- transcendental expressions are initial data only --------------------------


def test_transcendental_initial_data_takes_no_part_in_arithmetic():
    import numpy as np

    from hydrobrackets.numsim import Grid, sample_initial_data

    # a datum with a call stays a parse tree, which only the sampler reads
    e = parse("0.1*sin(x)", ("x",), initial_data=True)
    assert not isinstance(e, Expr)
    for op in (lambda: e + 1, lambda: 0 * e, lambda: -e):
        with pytest.raises(TypeError):
            op()
    grid = Grid(16, 2 * math.pi)
    state = sample_initial_data(grid, [e])
    assert np.max(np.abs(state.v[0] - 0.1 * np.sin(grid.nodes))) < 1e-15
    # rational initial data is an Expr and samples through a monomial table
    r = parse("x^2/2 - 1/3", ("x",), initial_data=True)
    assert isinstance(r, Expr)
    want = grid.nodes**2 / 2 - 1 / 3
    assert np.max(np.abs(sample_initial_data(grid, [r]).v[0] - want)) < 1e-13


def test_is_zero_takes_only_the_expression():
    import inspect

    assert list(inspect.signature(is_zero).parameters) == ["e"]


@pytest.mark.parametrize(
    "text,offset",
    [("u1/(u1-u1)", 2), ("(u1 - u1)^-2", 9), ("0^(-1)", 1), ("u2 + 1/(2*u1 - u1 - u1)", 6)],
)
def test_identically_zero_denominator_is_a_parse_error(text, offset):
    from hydrobrackets.expr import ZeroDenominatorError

    with pytest.raises(ZeroDenominatorError) as exc:
        parse(text, UV)
    assert exc.value.offset == offset
    assert str(exc.value) == f"identically zero denominator (at offset {offset})"
