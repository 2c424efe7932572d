"""Differential tests of the exact core against sympy.

Random sparse polynomials over a few variables (small exponents, small
rational coefficients) go through ``Poly``, ``poly_gcd`` and ``Expr``
and through sympy, and the results must agree; rational functions obey the
field axioms as judged by ``is_zero``; and the Levi-Civita symbols and
curvature of the constant-curvature family match sympy's.  sympy and
hypothesis are test-only dependencies.  The seeded gcd corpus of
``tools/scaled.py`` and four-variable pairs with a shared factor bound the
gcd's time.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrobrackets.expr import Expr, Zeroness, is_zero
from hydrobrackets import geometry as geo
from hydrobrackets.poly import Poly, poly_gcd, ray_integral

import oracles

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


def build(terms, names=VARS) -> Poly:
    p = Poly()
    for exps, c in terms:
        m = Poly.const(c)
        for v, e in zip(names, exps):
            m = m * Poly.var(v) ** e
        p = p + m
    return p


def to_sympy(p: Poly):
    terms = []
    for pairs, c in p.sorted_terms():
        powers = (sympy.Symbol(v) ** e for v, e in pairs)
        terms.append(sympy.Mul(sympy.Rational(c.numerator, c.denominator), *powers))
    return sympy.Add(*terms)


def same(p: Poly, expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


polys = term_lists.map(build)
nonconstant = polys.filter(lambda p: not p.is_const())
small_nonconstant = (
    st.lists(st.tuples(monomials, coefficients), min_size=1, max_size=4)
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


def assert_gcd_agrees(p: Poly, q: Poly):
    gens = [sympy.Symbol(v) for v in sorted(p.vars() | q.vars())]
    want = sympy.gcd(sympy.Poly(to_sympy(p), *gens), sympy.Poly(to_sympy(q), *gens))
    got = sympy.Poly(to_sympy(poly_gcd(p, q)), *gens)
    assert not got.is_zero and (got * want.LC() - want * got.LC()).is_zero  # equal up to a unit


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(
    a=polys.filter(lambda p: not p.is_zero()),
    b=polys.filter(lambda p: not p.is_zero()),
    c=st.lists(
        st.tuples(monomials, coefficients), min_size=20, max_size=60, unique_by=lambda t: t[0]
    ).map(build),
)
def test_gcd_of_a_large_shared_factor_agrees_up_to_a_unit(a, b, c):
    assert 20 <= len(c.terms) <= 60
    assert_gcd_agrees(a * c, b * c)


def test_gcd_whose_root_lies_near_a_too_small_evaluation_point():
    # below the bound 2 |f| + 29 = 39029, xi = min(B, 99 isqrt(B)) = 19503
    # leaves f(xi), g(xi) sharing only 2, and the candidate 1 divides both
    u = Poly.var("u1")
    d = u - 19501
    assert poly_gcd(d * (u + 1), d * (u + 2)) == d


# -- seeded inputs that stall a recursive remainder-sequence gcd ----------------

SCALED = Path(__file__).resolve().parent.parent / "tools" / "scaled.py"
SECONDS = 1.0  # generous: each case takes a few milliseconds
# sha256 of the 25 corpus strings joined by newlines
CORPUS_DIGEST = "cee755c963191e417e57f77976608ee322a8cfc5c43c647704a5c41f3791fb14"
PAIR_VARS = ("u1", "u2", "v1", "v2")


@lru_cache(maxsize=None)
def scaled():
    spec = importlib.util.spec_from_file_location("scaled", SCALED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("index", range(25))
def test_gcd_corpus_sum_prints_reduced_and_fast(index):
    total = sum(scaled().gcd_corpus()[index], Expr.const(0))
    seconds, _ = scaled()._best(lambda: str(total), 1)
    assert seconds < SECONDS
    num, den = total.normal_form()
    assert is_zero(Expr(num) / Expr(den) - total) is Zeroness.ZERO
    assert sympy.gcd(to_sympy(num), to_sympy(den)).is_number


def test_gcd_corpus_strings_are_pinned():
    texts = [str(sum(parts, Expr.const(0))) for parts in scaled().gcd_corpus()]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == CORPUS_DIGEST


@pytest.mark.parametrize("seed", range(8))
def test_gcd_of_four_variable_pairs_with_a_six_term_factor(seed):
    rng = random.Random(seed)
    c, a, b = (scaled().seeded_poly(rng, 6, 3, PAIR_VARS) for _ in range(3))
    p, q = a * c, b * c
    seconds, g = scaled()._best(lambda: poly_gcd(p, q), 1)
    assert seconds < SECONDS
    assert g.exact_div(c) is not None
    assert_gcd_agrees(p, q)


@pytest.mark.parametrize("seed", range(4))
def test_second_derivative_of_a_four_variable_quotient_prints_reduced_and_fast(seed):
    # the denominator is (b c)^3: one gcd with the whole product would work
    # on images of degree 18 in each variable
    rng = random.Random(seed)
    c, a, b = (scaled().seeded_poly(rng, 6, 3, PAIR_VARS) for _ in range(3))
    e = (Expr(a * c) / Expr(b * c)).diff("u1").diff("v2")
    seconds, (num, den) = scaled()._best(e.normal_form, 1)
    assert seconds < SECONDS
    assert is_zero(Expr(num) / Expr(den) - (Expr(a) / Expr(b)).diff("u1").diff("v2")) is Zeroness.ZERO
    assert sympy.gcd(to_sympy(num), to_sympy(den)).is_number


@SETTINGS
@given(a=polys, b=polys.filter(lambda p: not p.is_zero()), c=nonconstant)
def test_normal_form_agrees_with_cancel(a, b, c):
    rf = Expr(a * c) / Expr(b * c)
    num, den = rf.normal_form()
    want_num, want_den = sympy.fraction(sympy.cancel(to_sympy(a * c) / to_sympy(b * c)))
    assert sympy.expand(to_sympy(num) * want_den - to_sympy(den) * want_num) == 0
    assert sympy.gcd(to_sympy(num), to_sympy(den)).is_number


@SETTINGS
@given(parts=st.lists(st.tuples(polys, small_nonconstant), min_size=2, max_size=4))
def test_sum_order_does_not_change_the_canonical_form(parts):
    terms = [Expr(a) / Expr(b) for a, b in parts]
    forward = Expr.const(0)
    for t in terms:
        forward = forward + t
    backward = Expr.const(0)
    for t in reversed(terms):
        backward = backward + t
    assert str(forward) == str(backward)


# -- the ray integral: the potential of an exact 1-form -------------------------

RAY_VARS = ("u1", "u2", "c")
ray_monomials = st.tuples(*(st.integers(0, 3) for _ in RAY_VARS))


@SETTINGS
@given(terms=st.lists(st.tuples(ray_monomials, coefficients), min_size=0, max_size=5))
def test_ray_integral_of_a_gradient_is_the_potential_less_its_origin_value(terms):
    # F(u) = int_0^1 u^k df/du^k(t u) dt = f(u) - f(0); the parameter c is a constant
    f = build(terms, RAY_VARS)
    grad = [f.diff("u1"), f.diff("u2")]
    assert ray_integral(grad, ("u1", "u2")) == f - f.substitute({"u1": 0, "u2": 0})


# -- field axioms of Expr, judged by the exact zero test ----------------------

rationals = st.tuples(polys, st.one_of(st.just(Poly.const(1)), small_nonconstant)).map(
    lambda t: Expr(t[0]) / Expr(t[1])
)


@SETTINGS
@given(a=rationals, b=rationals, c=rationals)
def test_field_axioms_hold(a, b, c):
    for identity in (
        (a + b) + c - (a + (b + c)),
        (a * b) * c - a * (b * c),
        a + b - (b + a),
        a * b - b * a,
        a * (b + c) - (a * b + a * c),
        a - a,
    ):
        assert is_zero(identity) is Zeroness.ZERO
    if not b.is_zero():
        assert is_zero((a / b) * b - a) is Zeroness.ZERO


# -- geometry of the constant-curvature family against sympy --------------------


def expr_to_sympy(e: Expr):
    num, den = e.normal_form()
    return to_sympy(num) / to_sympy(den)


@pytest.mark.parametrize(
    "a,K", [((1, 3), 2), ((0, 2), 1), ((1, 2, -1), 1), (("1/2", 1, 3), -2)]
)
def test_christoffel_and_riemann_agree(a, K):
    g, _ = geo.canonical_metric(a, K)
    n = len(a)
    u = [sympy.Symbol(v) for v in g.vars]
    up = sympy.Matrix(
        n, n, lambda i, j: sympy.Rational(a[i]) * int(i == j) - sympy.Rational(K) * u[i] * u[j]
    )
    lo = sympy.simplify(up.inv())
    dlo = [[[sympy.diff(lo[i, j], u[k]) for k in range(n)] for j in range(n)] for i in range(n)]
    gamma = [
        [
            [
                sympy.cancel(
                    sum(up[i, s] * (dlo[s][k][j] + dlo[s][j][k] - dlo[j][k][s]) for s in range(n))
                    / 2
                )
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    conn_b = geo.christoffel(g)
    conn_gamma = oracles.gamma(g, conn_b)
    R = oracles.riemann(g)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert sympy.cancel(expr_to_sympy(conn_gamma[i][j][k]) - gamma[i][j][k]) == 0
                b = -sum(up[i, s] * gamma[j][s][k] for s in range(n))
                assert sympy.cancel(expr_to_sympy(conn_b[i][j][k]) - b) == 0
                for l in range(n):
                    r = (
                        sympy.diff(gamma[i][l][j], u[k])
                        - sympy.diff(gamma[i][k][j], u[l])
                        + sum(
                            gamma[i][k][s] * gamma[s][l][j] - gamma[i][l][s] * gamma[s][k][j]
                            for s in range(n)
                        )
                    )
                    assert sympy.cancel(expr_to_sympy(R[i][j][k][l]) - r) == 0
