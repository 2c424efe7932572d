"""Poisson-hood, compatibility, the canonical pair, and Liouville structure."""

from __future__ import annotations

import functools
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrobrackets import bracket as bracket_module
from hydrobrackets import geometry as geo
from hydrobrackets.bracket import (
    CanonicalPair,
    ConstantBracket,
    HydroBracket,
    NotLiouvilleError,
    NotSpecialError,
    PoissonReport,
    _c_residuals,
    _judge,
    _nonclosed_at,
    _s_residuals,
    build_canonical,
    check_canonical_equations,
    check_compat_constant,
    check_pencil,
    check_poisson,
    equivalence_audit,
    functional_bracket_density,
    liouville_function,
    special_liouville,
)
from hydrobrackets.cli import load_problem
from hydrobrackets.expr import Expr, Zeroness, is_zero, parse

import oracles

UV = ("u1", "u2")
ETA2 = ConstantBracket([[1, 0], [0, 1]])


def _zero(e) -> bool:
    return is_zero(e) is Zeroness.ZERO


def _canonical_bracket(a, K):
    vars = geo.field_vars(len(a))
    up, down, _ = geo.canonical_metric(a, K)
    return HydroBracket(vars=vars, g=up, b=geo.christoffel(vars, up, down), K=Expr.const(K))


def _pair(h_texts, K, eta=ETA2, extra_vars=()):
    vars = tuple(f"u{i + 1}" for i in range(eta.n))
    H = tuple(parse(t, vars + tuple(extra_vars)) for t in h_texts)
    return CanonicalPair(eta=eta, K=K, H=H, vars=vars)


# -- the constant bracket ------------------------------------------------------


def test_lift_inverts_lower_on_non_diagonal_eta():
    eta = ConstantBracket([[2, 1], [1, 1]])
    assert eta.down == ((1, -1), (-1, 2))
    x = (parse("u1 + 2", UV), parse("3*u2 - u1*u2", UV))
    lowered = eta.lower(x)
    assert _zero(lowered[0] - parse("u1 + 2 - 3*u2 + u1*u2", UV))
    for a, b in zip(eta.lift(lowered), x):
        assert _zero(a - b)
    for a, b in zip(eta.lower(eta.lift(x)), x):
        assert _zero(a - b)


def test_singular_eta_is_rejected():
    with pytest.raises(ValueError, match="^eta is singular$"):
        ConstantBracket([[1, 2], [2, 4]])


def test_large_eta_loads_in_polynomial_time():
    # an O(n!) inverse, such as cofactor expansion, takes minutes here
    n = 10
    up = [[2 if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    start = time.perf_counter()
    eta = ConstantBracket(up)
    assert time.perf_counter() - start < 2.0
    vars = geo.field_vars(n)
    x = tuple(parse(f"{i + 1}*{v}^2 - {v}", vars) for i, v in enumerate(vars))
    for a, b in zip(eta.lift(eta.lower(x)), x):
        assert _zero(a - b)


def test_eta_with_a_zero_leading_entry_needs_a_row_swap():
    eta = ConstantBracket([[0, 1, 0], [1, 0, 0], [0, 0, 3]])
    assert eta.down == ((0, 1, 0), (1, 0, 0), (0, 0, Fraction(1, 3)))


_ZERO_B2 = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: HydroBracket(UV, [[1, 0]], _ZERO_B2, 0), "g must be N x N"),
        (lambda: HydroBracket(UV, [[1, 0], [0, 1]], _ZERO_B2[:1], 0), "b must be N x N x N"),
        (lambda: ConstantBracket([[1, 0]]), "eta must be square"),
        (lambda: ConstantBracket([[1, 2], [3, 1]]), "eta must be symmetric"),
        (
            lambda: CanonicalPair(eta=ETA2, K=0, H=(Expr.var("u1"),), vars=UV),
            "H must have one potential per field component",
        ),
        (
            lambda: CanonicalPair(eta=ETA2, K=0, H=(1, 2), vars=("u1",)),
            "variable list must match eta",
        ),
    ],
)
def test_constructors_reject_malformed_data(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_eta_inverse_is_always_computed():
    with pytest.raises(TypeError):
        ConstantBracket([[2, 1], [1, 1]], down=((1, 0), (0, 1)))


# -- check_poisson -------------------------------------------------------------


def test_constant_bracket_is_poisson():
    report = check_poisson(ETA2.as_hydro(UV))
    assert report.passed
    assert [c.name for c in report.conditions] == ["s1", "s2", "s3", "s4", "s5"]


def test_canonical_metric_bracket_is_poisson():
    report = check_poisson(_canonical_bracket([1, 3], 2))
    assert report.passed


def test_perturbed_connection_fails_with_witness():
    B = _canonical_bracket([1, 3], 2)
    b = [[[B.b[i][j][k] for k in range(2)] for j in range(2)] for i in range(2)]
    b[0][0][0] = b[0][0][0] + Expr.var("u1")
    report = check_poisson(HydroBracket(vars=UV, g=B.g, b=b, K=B.K))
    assert not report.passed
    s2 = report.condition("s2")
    assert s2.status is Zeroness.NONZERO
    w = s2.witness
    assert w is not None and w.value != 0
    # the witness point really exhibits the failure
    residual = (
        B.g[0][0].diff("u1") - b[0][0][0] - b[0][0][0]
    )  # s2 at (1,1,1) for the perturbed b
    assert residual.evaluate(w.point) == w.value


def test_degenerate_metric_is_legal_input():
    # rank-one metric, zero connection, K = 0: passes all five conditions
    u1 = Expr.var("u1")
    zero = Expr.const(0)
    g = [[Expr.const(1), zero], [zero, zero]]
    b = [[[zero, zero], [zero, zero]], [[zero, zero], [zero, zero]]]
    report = check_poisson(HydroBracket(vars=UV, g=g, b=b, K=zero))
    assert report.passed


# -- compatibility -------------------------------------------------------------


def test_built_bracket_compatible_with_eta():
    P = _pair(["2*u1 - u2", "u1 + 3*u2"], 1)
    report = check_compat_constant(build_canonical(P), ETA2)
    assert report.passed
    assert {c.name for c in report.conditions} >= {"c1", "c2"}


def test_linear_potentials_compatible_any_constants():
    # symbolic coefficients c_ik and symbolic K: the whole family at once
    cs = ["c11", "c12", "c21", "c22"]
    P = CanonicalPair(
        eta=ETA2,
        K=Expr.var("kap"),
        H=(
            parse("c11*u1 + c12*u2", UV + tuple(cs)),
            parse("c21*u1 + c22*u2", UV + tuple(cs)),
        ),
        vars=UV,
    )
    report = check_compat_constant(build_canonical(P), ETA2)
    assert report.passed


def test_compat_violation_has_witness():
    u = [Expr.var(v) for v in UV]
    zero = Expr.const(0)
    b = [[[(u[k] if i == j else zero) for k in range(2)] for j in range(2)] for i in range(2)]
    g = [[(u[0] * u[0] + u[1] * u[1] if i == j else zero) for j in range(2)] for i in range(2)]
    B = HydroBracket(vars=UV, g=g, b=b, K=zero)
    report = check_compat_constant(B, ETA2)
    c1 = report.condition("c1")
    assert c1.status is Zeroness.NONZERO
    assert c1.witness is not None


# -- pencils -------------------------------------------------------------------


def test_pencil_canonical_with_constant_partner():
    P = _pair(["2*u1 - u2", "u1 + 3*u2"], 2)
    B1 = build_canonical(P)
    report = check_pencil(B1, ETA2.as_hydro(UV))
    assert report.passed
    assert report.extras["local_member"] == (Fraction(0), Fraction(1))


def test_pencil_self():
    P = _pair(["2*u1 - u2", "u1 + 3*u2"], 1)
    B = build_canonical(P)
    assert check_pencil(B, B).passed


def test_pencil_two_canonical_metrics_regression():
    # verdict computed, frozen as a regression: the family a^i d^{ij} - K u u
    # is closed under pencils (coefficients stay affine in the parameter),
    # so two such brackets are compatible
    B1 = _canonical_bracket([1, 1], 1)
    B2 = _canonical_bracket([2, 1], 1)
    report = check_pencil(B1, B2)
    assert report.passed


def test_local_member_property():
    # combination cancelling the nonlocal constants is local and Poisson
    Pa = _pair(["u1", "u2"], 1)
    Pb = _pair(["u1 - u2", "2*u1"], 3)
    Ba, Bb = build_canonical(Pa), build_canonical(Pb)
    K1, K2 = Fraction(1), Fraction(3)
    g = [
        [Ba.g[i][j] * K2 - Bb.g[i][j] * K1 for j in range(2)] for i in range(2)
    ]
    b = [
        [[Ba.b[i][j][k] * K2 - Bb.b[i][j][k] * K1 for k in range(2)] for j in range(2)]
        for i in range(2)
    ]
    Kloc = Ba.K * K2 - Bb.K * K1
    assert _zero(Kloc)
    assert check_poisson(HydroBracket(vars=UV, g=g, b=b, K=Kloc)).passed
    report = check_pencil(Ba, Bb)
    lam0, lam1 = report.extras["local_member"]
    assert lam0 * K1 + lam1 * K2 == 0


# -- point transformations: a verdict is about the bracket, not its coordinates
#
# oracles.pull_back carries a bracket through w = w(u).  Each map below is a
# polynomial automorphism with polynomial inverse, (w(u), u(w)), and eta = I
# is carried along as a nonconstant flat bracket T(I).

POINT_MAPS = {
    "triangular": (("u1 + u2^2", "u2"), ("u1 - u2^2", "u2")),
    "linear": (("2*u1 + u2", "u1 + u2"), ("u1 - u2", "-u1 + 2*u2")),
    "composed": (("u1 + (u1 + u2)^2", "u1 + u2"), ("u1 - u2^2", "u2 - u1 + u2^2")),
}
QUADRATIC_H = ["(u1^2 + u2^2)/2", "u1*u2"]
# check_poisson and check_compat_constant against I, in the original coordinates
POINT_BRACKETS = {
    "a=(1, 3) K=2": (lambda: _canonical_bracket((1, 3), 2), (True, True)),
    "quadratic H K=0": (lambda: build_canonical(_pair(QUADRATIC_H, 0)), (True, True)),
    "quadratic H K=1": (lambda: build_canonical(_pair(QUADRATIC_H, 1)), (False, False)),  # fails ass2
}


@functools.cache
def _transformed_pairs():
    """(bracket name, map name, B, T(B), T(I)) for every bracket of
    POINT_BRACKETS under every map of POINT_MAPS."""
    identity = ETA2.as_hydro(UV)
    out = []
    for name, (make, _) in POINT_BRACKETS.items():
        B = make()
        for map_name, (w, u_of_w) in POINT_MAPS.items():
            T = [oracles.pull_back(X, w, u_of_w) for X in (B, identity)]
            out.append((name, map_name, B, *T))
    return tuple(out)


def test_verdicts_are_invariant_under_point_transformations():
    for name, map_name, B, TB, TI in _transformed_pairs():
        poisson, compat = POINT_BRACKETS[name][1]
        assert check_poisson(B).passed == poisson, name
        assert check_poisson(TB).passed == poisson, (name, map_name)
        assert check_compat_constant(B, ETA2).passed == compat, name
        assert check_pencil(TB, TI).passed == compat, (name, map_name)


# -- the Nijenhuis torsion: an independent necessary condition ---------------
#
# Compatible brackets whose second metric is nondegenerate have an affinor
# L = g1 g2^{-1} of zero Nijenhuis torsion (tests/oracles.py).  The torsion
# reads the two metrics alone, so it checks c1 and the pencil's families by
# a formula that shares nothing with their residual generators.

TESTS_DIR = Path(__file__).resolve().parent
CANONICAL_FAMILY = [  # (a, K) of g^{ij} = a^i delta^{ij} - K u^i u^j, N = 2-5
    ((1, 3), 2),
    ((2, 1), -1),
    ((0, 1), 1),
    ((1, 2, 3), 1),
    ((1, 1, 2), -2),
    ((1, 2, 3, 5), 1),
    ((2, 1, 1, 3), -1),
    ((1, 2, 3, 5, 7), 1),
    ((2, 1, 1, 3, 4), -1),
]
ETA2_DIAG = ConstantBracket([[1, 0], [0, 2]])
# (k, i, j) and N^k_{ij} of the first nonzero entry of each pair that fails.
# Every one fails in truth: its torsion is nonzero.  failing_explicit_n2 is
# not Poisson (s3, s4); the others are Poisson and fail c1 only against eta
# and s3 only as a pencil with eta, so a fault that passes them in either
# family shows as a passed pair of nonzero torsion.  The K = 1 quadratic pair
# fails ass2; carried through a point map with I it fails as a pencil.
FAILING_TORSION = {
    "failing_explicit_n2 check-compat": ((2, 1, 2), "-u1*u2^2"),
    "failing_explicit_n2 check-pencil": ((2, 1, 2), "-u1*u2^2"),
    "flat pullback check-compat": ((1, 1, 2), "2*u1^2"),
    "flat pullback check-pencil": ((1, 1, 2), "2*u1^2"),
    "quadratic H check-compat": ((1, 1, 2), "u2"),
    "quadratic H check-pencil": ((1, 1, 2), "u2"),
    "quadratic H skew check-compat": ((1, 1, 2), "4*u1 - 8*u2"),
    "quadratic H skew check-pencil": ((1, 1, 2), "4*u1 - 8*u2"),
    "cubic H skew check-compat": ((1, 1, 2), "2*u1^2*u2^2 + 2*u1^3 + 8*u1*u2^2 + 12*u1^2 + 16*u1"),
    "cubic H skew check-pencil": ((1, 1, 2), "2*u1^2*u2^2 + 2*u1^3 + 8*u1*u2^2 + 12*u1^2 + 16*u1"),
    "quadratic H K=1 under triangular check-pencil": ((1, 1, 2), "-4*u2^5 + 8*u1*u2^3 - 4*u1^2*u2 + 4*u2^3"),
    "quadratic H K=1 under linear check-pencil": ((1, 1, 2), "-4*u1*u2 + 6*u2^2"),
    "quadratic H K=1 under composed check-pencil": ((1, 1, 2), "8*u2^4 - 8*u1*u2^2 + 4*u2^3"),
}


def _torsion_pairs():
    """(name, verdict, B1, B2): each bracket against its eta by check-compat
    and against its partner by check-pencil."""
    pairs = []

    def both(name, B, eta, partner=None):
        flat = eta.as_hydro(B.vars)
        pairs.append((f"{name} check-compat", check_compat_constant(B, eta).passed, B, flat))
        partner = partner or flat
        pairs.append((f"{name} check-pencil", check_pencil(B, partner).passed, B, partner))

    golden = [TESTS_DIR / "golden" / f"{stem}.json" for stem in ("failing_explicit_n2", "rational_h_n2")]
    for path in sorted((TESTS_DIR.parent / "problems").glob("*.json")) + golden:
        prob = load_problem(str(path))
        both(path.stem, prob.bracket(), prob.eta, prob.second_bracket())
    family = [_canonical_bracket(a, K) for a, K in CANONICAL_FAMILY]
    for (a, K), B in zip(CANONICAL_FAMILY, family):
        n = len(a)
        for weights in ([1] * n, range(1, n + 1)):  # eta = I and diag(1..N)
            eta = ConstantBracket([[w * (i == j) for j in range(n)] for i, w in enumerate(weights)])
            both(f"a={a} K={K} eta={eta.up}", B, eta)
    for (x, B1), (y, B2) in itertools.combinations(zip(CANONICAL_FAMILY, family), 2):
        if B1.n == B2.n:
            pairs.append((f"{x} + lam {y}", check_pencil(B1, B2).passed, B1, B2))
    quadratic = build_canonical(_pair(["(u1^2 + u2^2)/2", "u1*u2"], 0))
    cubic = build_canonical(_pair(["u1^3/6 + u1^2", "u2^4/12"], 0))
    both("flat pullback", _flat_pullback_bracket(), ETA2)
    both("quadratic H", quadratic, ETA2_DIAG)
    both("quadratic H skew", quadratic, ETA2_SKEW)
    both("cubic H skew", cubic, ETA2_SKEW)
    for name, map_name, _, TB, TI in _transformed_pairs():
        pairs.append((f"{name} under {map_name} check-pencil", check_pencil(TB, TI).passed, TB, TI))
    return pairs


def test_every_compatible_pair_has_zero_nijenhuis_torsion():
    failing = {}
    for name, ok, B1, B2 in _torsion_pairs():
        torsion = oracles.nijenhuis_torsion(B1.g, B2.g, B1.vars)
        nonzero = sorted((k, str(v)) for k, v in torsion.items() if not v.is_zero())
        if ok:
            assert not nonzero, f"{name} passes, but its torsion is {nonzero}"
        else:
            failing[name] = nonzero[0] if nonzero else None
    assert failing == FAILING_TORSION


# -- residual families against the dense reference ---------------------------
#
# The families skip exact-zero products and read one cached curl table.  The
# reference below is the dense form of the same loops: every residual must be
# the same Expr, with the same indices, in the same order, so every report
# (witnesses included) is unchanged.


def _dense_families(B, eta=None):
    n, g, b, K = B.n, B.g, B.b, B.K
    vars = B.vars
    zero = Expr.const(0)
    dg = [[[g[i][j].diff(vars[k]) for k in range(n)] for j in range(n)] for i in range(n)]
    db = [
        [[[b[i][j][k].diff(vars[l]) for l in range(n)] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    R = range(n)
    s1 = [((i + 1, j + 1), g[i][j] - g[j][i]) for i in R for j in range(i + 1, n)]
    s2 = [
        ((i + 1, j + 1, k + 1), dg[i][j][k] - b[i][j][k] - b[j][i][k])
        for i in R for j in range(i, n) for k in R
    ]
    s3 = [
        (
            (i + 1, j + 1, r + 1),
            sum((g[i][s] * b[j][r][s] - g[j][s] * b[i][r][s] for s in R), zero),
        )
        for i in R for j in range(i + 1, n) for r in R
    ]
    s4 = []
    for i in R:
        for j in R:
            for r in R:
                for k in R:
                    res = sum((g[i][s] * (db[j][r][s][k] - db[j][r][k][s]) for s in R), zero)
                    rhs = (g[i][r] if j == k else zero) - (g[i][j] if r == k else zero)
                    assoc = sum(
                        (b[i][j][s] * b[s][r][k] - b[i][r][s] * b[s][j][k] for s in R), zero
                    )
                    s4.append(((i + 1, j + 1, r + 1, k + 1), res - K * rhs + assoc))
    s5, seen = [], set()
    for i in R:
        for j in R:
            for r in R:
                orbit = min((i, j, r), (j, r, i), (r, i, j))
                if orbit in seen:
                    continue
                seen.add(orbit)
                for k in R:
                    for p in range(k, n):
                        res = zero
                        for a, bb, c in ((i, j, r), (j, r, i), (r, i, j)):
                            t = sum(
                                (
                                    b[s][a][p] * (db[bb][c][k][s] - db[bb][c][s][k])
                                    + b[s][a][k] * (db[bb][c][p][s] - db[bb][c][s][p])
                                    for s in R
                                ),
                                zero,
                            )
                            t = t + K * ((b[a][bb][k] - b[bb][a][k]) if c == p else zero)
                            t = t + K * ((b[a][bb][p] - b[bb][a][p]) if c == k else zero)
                            res = res + t
                        s5.append(((i + 1, j + 1, r + 1, k + 1, p + 1), res))
    out = [("s1", s1), ("s2", s2), ("s3", s3), ("s4", s4), ("s5", s5)]
    if eta is not None:
        lb = [[eta.lift(b[j][r]) for r in R] for j in R]
        c1 = [
            ((i + 1, j + 1, r + 1), lb[j][r][i] - lb[i][r][j])
            for i in R for j in range(i + 1, n) for r in R
        ]
        c2 = [
            (
                (j + 1, r + 1, s + 1, k + 1),
                db[j][r][s][k] - db[j][r][k][s]
                - K * Expr.const(int(r == s and j == k) - int(j == s and r == k)),
            )
            for j in R for r in R for s in R for k in range(s + 1, n)
        ]
        out += [("c1", c1), ("c2", c2)]
    return out


def _assert_same_residuals(B, eta=None):
    families = _s_residuals(B) + ([] if eta is None else _c_residuals(B, eta))
    dense = _dense_families(B, eta)
    assert [name for name, _ in families] == [name for name, _ in dense]
    for (name, gen), (_, expected) in zip(families, dense):
        got = list(gen)
        assert [idx for idx, _ in got] == [idx for idx, _ in expected], name
        for (idx, e), (_, x) in zip(got, expected):
            assert (e.num, e.den) == (x.num, x.den), (name, idx)
            assert str(e) == str(x), (name, idx)
    rng = random.Random(7)
    reference = PoissonReport([_judge(name, iter(res), rng) for name, res in dense])
    if eta is None:
        assert check_poisson(B, rng=random.Random(7)) == reference
    else:
        assert check_compat_constant(B, eta, rng=random.Random(7)) == reference


def _identity_eta(n):
    return ConstantBracket([[int(i == j) for j in range(n)] for i in range(n)])


def _pencil_with_eta(B, eta):
    lam = Expr.var("lam")
    n = B.n
    g = [[B.g[i][j] + lam * Expr.const(eta.up[i][j]) for j in range(n)] for i in range(n)]
    return HydroBracket(vars=B.vars, g=g, b=B.b, K=B.K)


def _explicit_bracket(n, Kg, K):
    # g = diag(2, 3, ...) - Kg u u and b^{ij}_k = -Kg delta^i_k u^j: Poisson iff K = Kg
    vars = tuple(f"u{i + 1}" for i in range(n))
    u = [Expr.var(v) for v in vars]
    zero = Expr.const(0)
    R = range(n)
    g = [[Expr.const(i + 2 if i == j else 0) - Kg * u[i] * u[j] for j in R] for i in R]
    b = [[[(-Kg * u[j]) if i == k else zero for k in R] for j in R] for i in R]
    return HydroBracket(vars=vars, g=g, b=b, K=Expr.const(K))


@pytest.mark.parametrize(
    "a", [(1, 3), (1, 0), (1, 2, 3), (2, 0, 1, 3), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)]
)
def test_residual_families_match_the_dense_loops_on_canonical_metrics(a):
    B = _canonical_bracket(list(a), 1)
    _assert_same_residuals(B)
    _assert_same_residuals(B, _identity_eta(len(a)))


@pytest.mark.parametrize("K", [Fraction(3, 2), Fraction(-1, 2)], ids=["pass", "mismatch"])
def test_residual_families_match_the_dense_loops_on_explicit_brackets(K):
    B = _explicit_bracket(5, Fraction(3, 2), K)
    _assert_same_residuals(B)
    assert check_poisson(B).passed is (K == Fraction(3, 2))


@pytest.mark.parametrize("a", [(1, 3), (1, 2, 3), (2, 1, 0)])
def test_residual_families_match_the_dense_loops_on_pencils_with_eta(a):
    eta = _identity_eta(len(a))
    _assert_same_residuals(_pencil_with_eta(_canonical_bracket(list(a), 1), eta))


# rational g and b, where (num, den) equality of each residual is not
# automatic; some b entries are zero so that the masks skip terms
ETA2_SKEW = ConstantBracket([[2, 1], [1, 1]])
RATIONAL_G = (("1/(1 + u1^2)", "u1*u2/(2 + u2)"), ("u1*u2/(2 + u2)", "(u1 - u2)/(3 + u1*u2)"))
RATIONAL_B = (
    (("u1/(1 + u2)", "0"), ("1/(2 + u1)", "u2^2/(1 + u1^2)")),
    (("0", "(1 + u1)/(2 - u2)"), ("u1*u2/(3 + u1)", "0")),
)


@pytest.mark.parametrize("eta", [None, ETA2_SKEW], ids=["alone", "with-eta"])
def test_residual_families_match_the_dense_loops_on_a_rational_bracket(eta):
    g = [[parse(t, UV) for t in row] for row in RATIONAL_G]
    b = [[[parse(t, UV) for t in row] for row in plane] for plane in RATIONAL_B]
    B = HydroBracket(vars=UV, g=g, b=b, K=Expr.const(Fraction(1, 2)))
    assert all(e.den for row in g for e in row)  # every entry has a denominator
    _assert_same_residuals(B, eta)


@st.composite
def _random_brackets(draw):
    n = draw(st.integers(2, 3))
    vars = tuple(f"u{i + 1}" for i in range(n))
    monomials = st.tuples(
        st.integers(-3, 3), st.lists(st.integers(0, 2), min_size=n, max_size=n)
    )

    def entry():
        e = Expr.const(0)
        for c, exps in draw(st.lists(monomials, max_size=2)):
            term = Expr.const(c)
            for v, k in zip(vars, exps):
                term = term * Expr.var(v) ** k
            e = e + term
        return e

    g = [[entry() for _ in range(n)] for _ in range(n)]
    b = [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return HydroBracket(vars=vars, g=g, b=b, K=Expr.const(draw(st.integers(-2, 2))))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(B=_random_brackets())
def test_residual_families_match_the_dense_loops_on_random_brackets(B):
    _assert_same_residuals(B)
    _assert_same_residuals(B, _identity_eta(B.n))


# The potential equations ass1, ass2 skip exact-zero products the same way;
# the reference is their dense form.


def _dense_canonical_equations(P):
    n, eta, vars = P.n, P.eta, P.vars
    zero = Expr.const(0)
    R = range(n)
    d2H = [[[h.diff(vars[k]).diff(vars[l]) for l in R] for k in R] for h in P.H]
    L = [[eta.lift(row) for row in hess] for hess in d2H]
    ass1 = [
        (
            (i + 1, j + 1, k + 1, l + 1),
            sum((d2H[i][k][s] * L[j][l][s] - d2H[j][k][s] * L[i][l][s] for s in R), zero),
        )
        for i in R for j in range(i + 1, n) for k in R for l in R
    ]
    B = build_canonical(P)
    u = [Expr.var(v) for v in vars]
    # w^{jk}_s = b^{jk}_s + K delta^j_s u^k
    w = [[[B.b[j][k][s] + (B.K * u[k] if j == s else zero) for s in R] for k in R] for j in R]
    ass2 = [
        (
            (i + 1, j + 1, k + 1),
            sum((B.g[i][s] * w[j][k][s] - B.g[j][s] * w[i][k][s] for s in R), zero),
        )
        for i in R for j in range(i + 1, n) for k in R
    ]
    return [("ass1", ass1), ("ass2", ass2)]


def _assert_same_canonical_equations(P, monkeypatch):
    judged = []

    def recording(name, residuals, rng):
        residuals = list(residuals)
        judged.append((name, residuals))
        return _judge(name, iter(residuals), rng)

    with monkeypatch.context() as patch:
        patch.setattr(bracket_module, "_judge", recording)
        report = check_canonical_equations(P, rng=random.Random(9))
    dense = _dense_canonical_equations(P)
    assert [name for name, _ in judged] == [name for name, _ in dense]
    for (name, got), (_, expected) in zip(judged, dense):
        assert [idx for idx, _ in got] == [idx for idx, _ in expected], name
        for (idx, e), (_, x) in zip(got, expected):
            assert (e.num, e.den) == (x.num, x.den), (name, idx)
            assert str(e) == str(x), (name, idx)
    rng = random.Random(9)
    assert report == PoissonReport([_judge(name, iter(res), rng) for name, res in dense])


def _seeded_pair(rng, n, degree):
    vars = tuple(f"u{i + 1}" for i in range(n))
    monomials = [()] + [(i,) for i in range(n)]
    if degree == 2:
        monomials += [(i, j) for i in range(n) for j in range(i, n)]
    H = []
    for _ in range(n):
        text = " + ".join(
            f"({rng.randint(-3, 3)}/{rng.randint(1, 2)})" + "".join(f"*{vars[i]}" for i in m)
            for m in rng.sample(monomials, k=min(4, len(monomials)))
        )
        H.append(parse(text, vars))
    up = [[int(i == j) for j in range(n)] for i in range(n)]
    up[0][n - 1] = up[n - 1][0] = rng.choice([0, 1])  # an off-diagonal eta now and then
    up[0][0] = 2
    return CanonicalPair(eta=ConstantBracket(up), K=rng.randint(-2, 2), H=tuple(H), vars=vars)


def test_canonical_equations_match_the_dense_loops_on_the_problem_files(monkeypatch):
    root = Path(__file__).resolve().parents[1] / "problems"
    checked = 0
    for path in sorted(root.glob("*.json")):
        doc = json.loads(path.read_text())
        if "H" not in doc:
            continue
        n = doc["N"]
        vars = tuple(f"u{i + 1}" for i in range(n))
        P = CanonicalPair(
            eta=ConstantBracket(doc["eta"]),
            K=Fraction(str(doc["K"])),
            H=tuple(parse(h, vars) for h in doc["H"]),
            vars=vars,
        )
        _assert_same_canonical_equations(P, monkeypatch)
        checked += 1
    assert checked == 2


@pytest.mark.parametrize("degree", [1, 2], ids=["linear", "quadratic"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_canonical_equations_match_the_dense_loops_on_seeded_pairs(monkeypatch, n, degree):
    rng = random.Random(100 * n + degree)
    for _ in range(3):
        _assert_same_canonical_equations(_seeded_pair(rng, n, degree), monkeypatch)


@pytest.mark.parametrize("K", [1, -2])
def test_canonical_equations_match_the_dense_loops_on_rational_potentials(monkeypatch, K):
    P = _pair(("u1^2/(1 + u2)", "u1*u2/(2 + u1) + u2^3"), K, eta=ETA2_SKEW)
    _assert_same_canonical_equations(P, monkeypatch)


@pytest.mark.parametrize("n", [2, 3])
def test_canonical_equations_form_each_lifted_tensor_once(monkeypatch, n):
    # n lifts of the gradients for g1 and n^2 of the Hessians, which b1, ass1
    # and ass2 share; ass2 does not rebuild them from b1 (the Liouville form)
    P = _seeded_pair(random.Random(n), n, 2)
    lifts = []
    lift = ConstantBracket.lift

    def counted(self, covec):
        lifts.append(covec)
        return lift(self, covec)

    def rebuilt(B):
        raise AssertionError("the lifted Hessians were rebuilt from the bracket")

    monkeypatch.setattr(ConstantBracket, "lift", counted)
    monkeypatch.setattr(bracket_module, "_liouville_form", rebuilt, raising=False)
    check_canonical_equations(P)
    assert len(lifts) == n + n * n


# -- canonical pair ------------------------------------------------------------


def test_build_canonical_scalar():
    eta1 = ConstantBracket([[1]])
    P = CanonicalPair(eta=eta1, K=0, H=(parse("u1^2/2", ["u1"]),), vars=("u1",))
    B = build_canonical(P)
    assert _zero(B.g[0][0] - parse("2*u1", ["u1"]))
    assert _zero(B.b[0][0][0] - Expr.const(1))


def test_build_canonical_zero_potential():
    P = _pair(["0", "0"], 3)
    B = build_canonical(P)
    u = [Expr.var(v) for v in UV]
    for i in range(2):
        for j in range(2):
            assert _zero(B.g[i][j] + Expr.const(3) * u[i] * u[j])
            for k in range(2):
                expect = -Expr.const(3) * u[j] if i == k else Expr.const(0)
                assert _zero(B.b[i][j][k] - expect)
    assert check_poisson(B).passed


def test_build_canonical_linear_matches_closed_form():
    cs = ("c11", "c12", "c21", "c22")
    c = [[Expr.var("c11"), Expr.var("c12")], [Expr.var("c21"), Expr.var("c22")]]
    P = CanonicalPair(
        eta=ETA2,
        K=Expr.var("kap"),
        H=(
            parse("c11*u1 + c12*u2", UV + cs),
            parse("c21*u1 + c22*u2", UV + cs),
        ),
        vars=UV,
    )
    B = build_canonical(P)
    u = [Expr.var(v) for v in UV]
    kap = Expr.var("kap")
    for i in range(2):
        for j in range(2):
            expect = c[j][i] + c[i][j] - kap * u[i] * u[j]  # eta = identity
            assert _zero(B.g[i][j] - expect)
            for k in range(2):
                expect_b = -kap * u[j] if i == k else Expr.const(0)
                assert _zero(B.b[i][j][k] - expect_b)


def test_canonical_equations_scalar_always_pass():
    eta1 = ConstantBracket([[1]])
    P = CanonicalPair(
        eta=eta1, K=Expr.var("kap"), H=(parse("u1^3", ["u1", "kap"]),), vars=("u1",)
    )
    assert check_canonical_equations(P).passed


def test_canonical_equations_separable_failure():
    # quadratic potential in the first slot only: the mixed equation leaves
    # the residual K u1 u2, so any nonzero K fails
    P = _pair(["u1^2/2", "0"], 1)
    report = check_canonical_equations(P)
    assert not report.passed
    ass2 = report.condition("ass2")
    assert ass2.status is Zeroness.NONZERO
    # frozen residual value at u = (1, 1)
    residual = Expr.var("u1") * Expr.var("u2")  # K = 1
    assert ass2.witness.value == residual.evaluate(ass2.witness.point)
    # the built bracket fails the direct check as well
    assert not check_poisson(build_canonical(P)).passed


def test_equivalence_audit_on_fixtures():
    for P in (
        _pair(["2*u1 - u2", "u1 + 3*u2"], 2),  # linear, nonzero K
        _pair(["0", "0"], 1),  # zero potential
        _pair(["u1^2/2", "0"], 1),  # failing fixture: both routes say no
        _pair(["u1^3/6 + u1^2", "u2^4/12"], 0),  # separable, K = 0
    ):
        assert equivalence_audit(P).extras["inconsistency"] is None


def test_equivalence_audit_randomized():
    rng = random.Random(77)
    mon = ["1", "u1", "u2", "u1^2", "u1*u2", "u2^2", "u1^3", "u1^2*u2", "u1*u2^2", "u2^3"]
    for _ in range(10):
        hs = []
        for _ in range(2):
            terms = rng.sample(mon, k=3)
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in terms]
            text = " + ".join(f"({c})*({m})" for c, m in zip(coeffs, terms))
            hs.append(text)
        P = _pair(hs, Fraction(rng.randint(-2, 2)))
        assert equivalence_audit(P).extras["inconsistency"] is None


def test_equivalence_audit_judges_the_equations_first_with_the_callers_rng():
    P = _pair(["u1^2/2", "u1*u2^2"], 1)
    audit = equivalence_audit(P, rng=random.Random(5))
    direct = check_canonical_equations(P, rng=random.Random(5))
    assert audit.conditions == direct.conditions
    assert [c.status for c in audit.conditions] == [Zeroness.NONZERO] * 2
    assert audit.extras == {"inconsistency": None}


def test_equivalence_audit_records_a_disagreement(monkeypatch):
    from hydrobrackets import bracket

    P = _pair(["2*u1 - u2", "u1 + 3*u2"], 1)
    failing = bracket.PoissonReport(
        conditions=[bracket.ConditionResult("s1", Zeroness.NONZERO)]
    )
    monkeypatch.setattr(bracket, "check_poisson", lambda B, rng=None: failing)
    audit = equivalence_audit(P)
    assert audit.extras["inconsistency"] == (
        "direct check says poisson=False but potential equations say poisson=True"
    )
    assert audit.passed


# -- Liouville structure ---------------------------------------------------------


def test_liouville_of_built_bracket():
    P = _pair(["u1^2/2 + u1*u2", "u2^3/6"], 0)
    B = build_canonical(P)
    Phi = liouville_function(B)
    dH = [[P.H[j].diff(UV[s]) for s in range(2)] for j in range(2)]
    for i in range(2):
        for j in range(2):
            expect = sum(
                (Expr.const(ETA2.up[i][s]) * dH[j][s] for s in range(2)), Expr.const(0)
            )
            assert _zero(Phi[i][j] - expect)


def test_liouville_constant_bracket():
    Phi = liouville_function(ETA2.as_hydro(UV))
    for i in range(2):
        for j in range(2):
            assert _zero(Phi[i][j] - Expr.const(Fraction(ETA2.up[i][j], 2)))
    H = special_liouville(Phi, ETA2, UV)
    for j in range(2):
        assert _zero(H[j] - Expr.var(UV[j]) * Fraction(1, 2))


def test_not_liouville_curl_fixture():
    zero = Expr.const(0)
    b = [[[zero, zero], [zero, zero]], [[zero, zero], [zero, zero]]]
    b[0][0][0] = Expr.var("u2")
    b[0][0][1] = -Expr.var("u1")
    g = [[zero, zero], [zero, zero]]
    B = HydroBracket(vars=UV, g=g, b=b, K=zero)
    with pytest.raises(NotLiouvilleError) as exc:
        liouville_function(B)
    assert exc.value.indices == (1, 1, 1, 2)


def test_liouville_but_not_special():
    zero = Expr.const(0)
    phi = [[zero, Expr.var("u2")], [zero, zero]]
    g = [[phi[i][j] + phi[j][i] for j in range(2)] for i in range(2)]
    b = [[[phi[i][j].diff(UV[k]) for k in range(2)] for j in range(2)] for i in range(2)]
    B = HydroBracket(vars=UV, g=g, b=b, K=zero)
    Phi = liouville_function(B)  # succeeds
    with pytest.raises(NotSpecialError):
        special_liouville(Phi, ETA2, UV)


def test_not_special_names_its_indices():
    zero = Expr.const(0)
    phi = [[zero, Expr.var("u2")], [zero, zero]]
    g = [[phi[i][j] + phi[j][i] for j in range(2)] for i in range(2)]
    b = [[[phi[i][j].diff(UV[k]) for k in range(2)] for j in range(2)] for i in range(2)]
    B = HydroBracket(vars=UV, g=g, b=b, K=zero)
    with pytest.raises(NotSpecialError, match=r"at \(j,k,l\)=\(2,1,2\)$") as exc:
        special_liouville(liouville_function(B), ETA2, UV)
    assert exc.value.indices == (2, 1, 2)


def test_special_liouville_round_trip():
    fixtures = [
        (["2*u1 - u2", "u1 + 3*u2"], 1),
        (["u1^2/2 + u1*u2", "u2^3/6"], 0),
        (["u1^3/6", "u2^2/2"], 0),
        (["0", "0"], 2),
        (["u1*u2", "u1^2/2"], 0),
    ]
    for h_texts, K in fixtures:
        P = _pair(h_texts, K)
        B = build_canonical(P)
        H = special_liouville(liouville_function(B), ETA2, UV)
        P2 = CanonicalPair(eta=ETA2, K=B.K, H=H, vars=UV)
        B2 = build_canonical(P2)
        for i in range(2):
            for j in range(2):
                assert _zero(B.g[i][j] - B2.g[i][j])
                for k in range(2):
                    assert _zero(B.b[i][j][k] - B2.b[i][j][k])


# -- functional densities --------------------------------------------------------


def test_annihilator_densities_in_involution():
    P = _pair(["2*u1 - u2", "u1 + 3*u2"], 1)
    B = build_canonical(P)
    u1, u2 = Expr.var("u1"), Expr.var("u2")
    assert oracles.in_involution(B, u1, u2)
    assert oracles.in_involution(B, u1, u1)


def test_momentum_in_involution_with_annihilators():
    P = _pair(["2*u1 - u2", "u1 + 3*u2"], 1)
    B = build_canonical(P)
    u1, u2 = Expr.var("u1"), Expr.var("u2")
    momentum = (u1 * u1 + u2 * u2) * Fraction(1, 2)
    assert oracles.in_involution(B, u1, momentum)
    assert oracles.in_involution(B, u2, momentum)
    assert oracles.in_involution(B, momentum, momentum)


def test_metric_singular_at_the_origin_is_unsupported():
    from hydrobrackets.bracket import UnsupportedIntegrandError

    u1 = Expr.var("u1")
    B = HydroBracket(vars=("u1",), g=((1 / u1,),), b=(((u1,),),), K=1)
    with pytest.raises(UnsupportedIntegrandError, match=r"g\[1\]\[1\] is singular"):
        liouville_function(B)


def test_total_derivative_counterexamples():
    # u2 u1_x + u1 u2_x is d/dx of u1 u2; u2 u1_x is not a total derivative
    assert _nonclosed_at((Expr.var("u2"), Expr.var("u1")), UV) is None
    assert _nonclosed_at((Expr.var("u2"), Expr.const(0)), UV) == (0, 1)


def test_density_class_is_validated():
    B = build_canonical(_pair(["u1", "u2"], 0))
    with pytest.raises(ValueError, match=r"^densities may depend on the field variables only$"):
        functional_bracket_density(B, Expr.var("u1"), Expr.var("x"))


def _involution_verdict(B, eta):
    n = B.n
    u = [Expr.var(v) for v in B.vars]
    dens = [u[i] for i in range(n)]
    quad = sum(
        (Expr.const(eta.down[i][j]) * u[i] * u[j] for i in range(n) for j in range(n)),
        Expr.const(0),
    )
    dens.append(quad)
    for a in range(len(dens)):
        for b in range(a, len(dens)):
            if not oracles.in_involution(B, dens[a], dens[b]):
                return False
    return True


def _flat_pullback_bracket():
    # the constant bracket pushed through u1 = w1, u2 = w2 - w1^2/2: flat,
    # Poisson by construction, but not in Liouville position for the identity
    u1 = Expr.var("u1")
    g = [[Expr.const(1), -u1], [-u1, Expr.const(1) + u1 * u1]]
    return HydroBracket(vars=UV, g=g, b=geo.christoffel(UV, g), K=Expr.const(0))


def test_compatibility_equals_involution_of_coordinates_and_momentum():
    # three Poisson fixtures, one of them incompatible with the tested eta
    fixtures = [
        build_canonical(_pair(["2*u1 - u2", "u1 + 3*u2"], 1)),
        build_canonical(_pair(["u1^3/6 + u1^2", "u2^4/12"], 0)),
        _flat_pullback_bracket(),
    ]
    verdicts = []
    for B in fixtures:
        assert check_poisson(B).passed  # the equivalence is about Poisson inputs
        compat = check_compat_constant(B, ETA2).passed
        invol = _involution_verdict(B, ETA2)
        assert compat == invol
        verdicts.append(compat)
    assert verdicts[0] and verdicts[1] and not verdicts[2]


def _reference_omega(B, f, h):
    # the functional-bracket integrand as the plain N^3 sum
    # omega_k = df_i (g^{ij} d2h_jk + b^{ij}_k dh_j) + K (h - h(0)) df_k
    n = B.n
    df = [f.diff(v) for v in B.vars]
    dh = [h.diff(v) for v in B.vars]
    d2h = [[d.diff(v) for v in B.vars] for d in dh]
    h_shift = h - h.at_origin(B.vars)
    zero = Expr.const(0)
    return [
        str(
            sum(
                (
                    df[i] * (B.g[i][j] * d2h[j][k] + B.b[i][j][k] * dh[j])
                    for i in range(n)
                    for j in range(n)
                ),
                zero,
            )
            + B.K * h_shift * df[k]
        )
        for k in range(n)
    ]


def _hierarchy_pair_n3():
    from hydrobrackets.hierarchy import hierarchy

    eta = ConstantBracket([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    P = _pair(["2*u1 - u2 + u3", "u1 + 3*u2", "2*u1 + u2 - u3"], 1, eta=eta)
    flows = hierarchy(P, 2)
    return P._bracket, [flows[1].S, flows[2].S, Expr.var("u1") + 1]


def test_functional_bracket_density_matches_the_cubic_sum():
    cases = [
        (B, [Expr.var(v) for v in B.vars] + [parse("u1^2 + u1*u2 + 1/2", UV)])
        for B in (
            build_canonical(_pair(["2*u1 - u2", "u1 + 3*u2"], 1)),
            build_canonical(_pair(["u1^3/6 + u1^2", "u2^4/12"], 0)),
            _flat_pullback_bracket(),
        )
    ]
    cases.append(_hierarchy_pair_n3())
    for B, dens in cases:
        for f in dens:
            for h in dens:
                omega = functional_bracket_density(B, f, h)
                assert [str(w) for w in omega] == _reference_omega(B, f, h)
