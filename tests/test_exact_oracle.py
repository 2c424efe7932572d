"""Differential tests of the exact core against sympy.

Random sparse polynomials over a few variables (small exponents, small
rational coefficients) go through ``Poly``, ``poly_gcd`` and ``RationalFn``
and through sympy, and the results must agree.  sympy and hypothesis are
test-only dependencies.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrobrackets.poly import Poly, RationalFn, poly_gcd

sympy = pytest.importorskip("sympy")

VARS = ("u1", "u2", "v1")
SYMS = {v: sympy.Symbol(v) for v in VARS}
GENS = [SYMS[v] for v in VARS]

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

coefficients = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.sampled_from([1, 1, 2, 3])
)
monomials = st.tuples(*(st.integers(0, 3) for _ in VARS))
term_lists = st.lists(st.tuples(monomials, coefficients), min_size=0, max_size=4)


def build(terms) -> Poly:
    p = Poly()
    for exps, c in terms:
        m = Poly.const(c)
        for v, e in zip(VARS, exps):
            m = m * Poly.var(v) ** e
        p = p + m
    return p


def to_sympy(p: Poly):
    out = sympy.Integer(0)
    for pairs, c in p.sorted_terms():
        t = sympy.Rational(c.numerator, c.denominator)
        for v, e in pairs:
            t *= SYMS[v] ** e
        out += t
    return out


def same(p: Poly, expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


polys = term_lists.map(build)
nonconstant = polys.filter(lambda p: not p.is_const())
# denominators of sums stay small: the normal form's gcd grows fast with degree
small_monomials = st.tuples(*(st.integers(0, 1) for _ in VARS))
small_nonconstant = (
    st.lists(st.tuples(small_monomials, coefficients), min_size=1, max_size=2)
    .map(build)
    .filter(lambda p: not p.is_const())
)


@SETTINGS
@given(p=polys, q=polys)
def test_ring_operations_agree(p, q):
    P, Q = to_sympy(p), to_sympy(q)
    assert same(p + q, P + Q)
    assert same(p - q, P - Q)
    assert same(p * q, P * Q)
    assert same(-p, -P)
    assert same(p * Fraction(-3, 4), P * sympy.Rational(-3, 4))


@SETTINGS
@given(p=polys, x=st.integers(-3, 3), y=st.sampled_from([1, 2, 5]))
def test_diff_and_substitute_agree(p, x, y):
    P = to_sympy(p)
    for v in VARS:
        assert same(p.diff(v), sympy.diff(P, SYMS[v]))
    value = Fraction(x, y)
    assert same(p.substitute({"u1": value}), P.subs(SYMS["u1"], sympy.Rational(x, y)))
    assert same(p.substitute({"u2": value, "v1": 0}), P.subs({SYMS["u2"]: sympy.Rational(x, y), SYMS["v1"]: 0}))


@SETTINGS
@given(p=polys, d=nonconstant)
def test_exact_div_agrees(p, d):
    P, D = to_sympy(p), to_sympy(d)
    assert (p * d).exact_div(d) == p
    quotient = p.exact_div(d)
    num, den = sympy.fraction(sympy.cancel(P / D))
    if den.is_number:
        assert quotient is not None and same(quotient, num / den)
    else:
        assert quotient is None


@SETTINGS
@given(a=polys, b=polys, c=polys)
def test_gcd_agrees_up_to_a_unit(a, b, c):
    p, q = a * c, b * c
    g = poly_gcd(p, q)
    G = sympy.gcd(to_sympy(p), to_sympy(q))
    if G == 0:
        assert g.is_zero()
        return
    ratio = sympy.cancel(to_sympy(g) / G)
    assert ratio.is_number and ratio != 0


@SETTINGS
@given(a=polys, b=polys.filter(lambda p: not p.is_zero()), c=nonconstant)
def test_normal_form_agrees_with_cancel(a, b, c):
    rf = RationalFn.from_poly(a * c) / RationalFn.from_poly(b * c)
    num, den = rf.normal_form()
    want_num, want_den = sympy.fraction(sympy.cancel(to_sympy(a * c) / to_sympy(b * c)))
    assert sympy.expand(to_sympy(num) * want_den - to_sympy(den) * want_num) == 0
    assert sympy.gcd(to_sympy(num), to_sympy(den)).is_number


@SETTINGS
@given(parts=st.lists(st.tuples(polys, small_nonconstant), min_size=2, max_size=4))
def test_sum_order_does_not_change_the_canonical_form(parts):
    terms = [RationalFn.from_poly(a) / RationalFn.from_poly(b) for a, b in parts]
    forward = RationalFn.const(0)
    for t in terms:
        forward = forward + t
    backward = RationalFn.const(0)
    for t in reversed(terms):
        backward = backward + t
    assert str(forward) == str(backward)
