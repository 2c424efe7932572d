"""Metric inversion, connection, curvature and the closed-form models."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hydrobrackets.expr import Expr, Zeroness, as_expr, is_zero
from hydrobrackets import geometry as geo

import oracles

UV = ("u1", "u2")


def _zero(e) -> bool:
    return is_zero(e) is Zeroness.ZERO


def _delta(i, j) -> Expr:
    return Expr.const(1 if i == j else 0)


def test_invert_constant_diagonal():
    down = geo.matrix_inverse([[Expr.const(2), Expr.const(0)], [Expr.const(0), Expr.const(-3)]])
    assert _zero(down[0][0] - Expr.const(Fraction(1, 2)))
    assert _zero(down[1][1] - Expr.const(Fraction(-1, 3)))
    assert _zero(down[0][1])


def test_invert_matches_closed_form():
    up, closed, _ = geo.canonical_metric([1, 2], 1)
    inverted = geo.matrix_inverse(up)
    for i in range(2):
        for j in range(2):
            assert _zero(inverted[i][j] - closed[i][j])


def test_inverse_identity_products():
    for a, K in ([(1, 3), Fraction(2)], [(2, -1, 3), Fraction(1, 2)]):
        up, down, _ = geo.canonical_metric(a, K)
        n = len(a)
        for i in range(n):
            for j in range(n):
                prod = sum(
                    (up[i][s] * down[s][j] for s in range(n)),
                    Expr.const(0),
                )
                assert _zero(prod - _delta(i, j))


def test_degenerate_metric_rejected():
    # christoffel inverts g^{ij} when g_{ij} is not given
    u1 = Expr.var("u1")
    with pytest.raises(geo.DegenerateMetricError):
        geo.christoffel(UV, [[u1, u1], [u1, u1]])


def test_matrix_inverse_of_random_and_symbolic_matrices():
    # fraction-free elimination: seeded rational matrices with many zeros
    # (row swaps, some singular) and canonical metrics, A A^{-1} = I exactly
    rng = random.Random(11)
    entry = lambda: Fraction(rng.choice([0, 0, 1, -2, 3]), rng.randint(1, 3))  # noqa: E731
    sizes = [n for n in range(1, 6) for _ in range(8)]
    cases = [[[entry() for _ in range(n)] for _ in range(n)] for n in sizes]
    cases += [geo.canonical_metric(a, 1)[0] for a in ((1, 2, 3), (2, 0, 1, 3))]
    singular = 0
    for A in cases:
        n = len(A)
        if oracles.det(A).is_zero():
            singular += 1
            with pytest.raises(geo.DegenerateMetricError):
                geo.matrix_inverse(A)
            continue
        inv = geo.matrix_inverse(A)
        for i in range(n):
            for j in range(n):
                prod = sum((inv[s][j] * A[i][s] for s in range(n)), Expr.const(0))
                assert _zero(prod - _delta(i, j))
    assert 0 < singular < len(cases) // 2


def _cofactor_det(A):
    """Determinant by cofactor expansion along the first row: n! products,
    the reference for the elimination route."""
    n = len(A)
    if n == 1:
        return as_expr(A[0][0])
    total = Expr.const(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in A[1:]]
        term = as_expr(A[0][j]) * _cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def test_det_by_elimination_equals_cofactor_expansion():
    # seeded rational matrices with many zeros (row swaps of both parities,
    # some singular) and the canonical metrics at N = 2-5, one degenerate
    rng = random.Random(23)
    entry = lambda: Fraction(rng.choice([0, 0, 1, -2, 3]), rng.randint(1, 3))  # noqa: E731
    cases = [[[entry() for _ in range(n)] for _ in range(n)] for n in range(1, 6) for _ in range(10)]
    metrics = [(1, 2), (1, 2, 3), (2, 0, 1, 3), (1, 2, 3, 4, 5)]
    cases += [geo.canonical_metric(a, 1)[0] for a in metrics]
    singular = 0
    for A in cases:
        d = oracles.det(A)
        assert _zero(d - _cofactor_det(A))
        singular += d.is_zero()
    assert 0 < singular < len(cases) // 2


def test_det_of_an_identically_singular_matrix_is_zero():
    u1 = Expr.var("u1")
    assert oracles.det([[u1, u1], [u1, u1]]).is_zero()
    assert oracles.det([[0, 1, 2], [0, u1, 3], [0, 4, u1]]).is_zero()


def test_det_reaches_the_canonical_metric_at_n_7():
    for n in (6, 7):
        up, _, det_closed = geo.canonical_metric(list(range(1, n + 1)), 1)
        assert _zero(oracles.det(up) - det_closed)


def test_christoffel_constant_metric_vanishes():
    eta = [[Expr.const(1), Expr.const(0)], [Expr.const(0), Expr.const(1)]]
    b = geo.christoffel(UV, eta)
    gam = oracles.gamma(geo.matrix_inverse(eta), b)
    assert all(
        _zero(gam[i][j][k]) and _zero(b[i][j][k])
        for i in range(2)
        for j in range(2)
        for k in range(2)
    )


def test_christoffel_scalar_constant_curvature():
    # one-component example: g^{11} = 1 - K u^2 with K = 1
    up, down, _ = geo.canonical_metric([1], 1)
    gam = oracles.gamma(down, geo.christoffel(("u1",), up, down))
    u = Expr.var("u1")
    expect = u / (Expr.const(1) - u * u)
    assert _zero(gam[0][0][0] - expect)


@pytest.mark.parametrize("n", [2, 3])
def test_contravariant_connection_of_rank_one_family(n):
    # mu^{ij} - K u^i u^j has b^{ij}_k = -K delta^i_k u^j, i.e. the raised
    # connection equals K delta^i_k u^j, for any constant symmetric mu
    rng = random.Random(11 + n)
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        mu[i][i] = Fraction(rng.randint(1, 4))
        for j in range(i + 1, n):
            mu[i][j] = mu[j][i] = Fraction(rng.randint(-2, 2), 3)
    K = Fraction(rng.randint(1, 3), 2)
    vars = geo.field_vars(n)
    u = [Expr.var(v) for v in vars]
    g = [
        [Expr.const(mu[i][j]) - Expr.const(K) * u[i] * u[j] for j in range(n)]
        for i in range(n)
    ]
    b = geo.christoffel(vars, g)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                expect = -Expr.const(K) * u[j] if i == k else Expr.const(0)
                assert _zero(b[i][j][k] - expect)


def test_riemann_flat_metric_zero():
    R = oracles.riemann(UV, [[Expr.const(1), Expr.const(0)], [Expr.const(0), Expr.const(-1)]])
    assert all(
        _zero(R[i][j][k][l])
        for i in range(2)
        for j in range(2)
        for k in range(2)
        for l in range(2)
    )


def test_constant_curvature_residual_canonical():
    up, down, _ = geo.canonical_metric([1, 1], 1)
    res = oracles.constant_curvature_residual(UV, up, 1, down)
    assert all(
        _zero(res[i][j][k][l])
        for i in range(2)
        for j in range(2)
        for k in range(2)
        for l in range(2)
    )


def test_constant_curvature_residual_wrong_K():
    up, down, _ = geo.canonical_metric([1, 2], 1)
    res = oracles.constant_curvature_residual(UV, up, Fraction(3), down)
    nz = [
        res[i][j][k][l]
        for i in range(2)
        for j in range(2)
        for k in range(2)
        for l in range(2)
        if is_zero(res[i][j][k][l]) is Zeroness.NONZERO
    ]
    assert nz
    # spot-check a probe value is genuinely nonzero
    assert nz[0].evaluate({"u1": Fraction(1, 3), "u2": Fraction(1, 5)}) != 0


def test_flat_metric_fails_nonzero_K():
    eta = [[Expr.const(1), Expr.const(0)], [Expr.const(0), Expr.const(1)]]
    res = oracles.constant_curvature_residual(UV, eta, 1)
    assert any(
        is_zero(res[i][j][k][l]) is Zeroness.NONZERO
        for i in range(2)
        for j in range(2)
        for k in range(2)
        for l in range(2)
    )


def test_first_bianchi_identity():
    up, down, _ = geo.canonical_metric([1, 2], Fraction(1, 2))
    R = oracles.riemann(UV, up, down)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    cyc = R[i][j][k][l] + R[i][k][l][j] + R[i][l][j][k]
                    assert _zero(cyc)


@pytest.mark.parametrize("n", [2, 3])
def test_levi_civita_compatibility(n):
    a = [Fraction(i + 1) for i in range(n)]
    vars = geo.field_vars(n)
    up, lo, _ = geo.canonical_metric(a, Fraction(1, 3))
    gam = oracles.gamma(lo, geo.christoffel(vars, up, lo))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                res = lo[i][j].diff(vars[k])
                res = res - sum(
                    (gam[s][k][i] * lo[s][j] for s in range(n)), Expr.const(0)
                )
                res = res - sum(
                    (gam[s][k][j] * lo[i][s] for s in range(n)), Expr.const(0)
                )
                assert _zero(res)


def _covariant_route_b(vars, up, lo):
    """b^{ij}_k = -g^{is} Gamma^j_{sk}, with Gamma from the derivatives of
    the covariant components: the reference for the contravariant formula."""
    n = len(vars)
    zero = Expr.const(0)
    dlo = [[[lo[i][j].diff(vars[k]) for k in range(n)] for j in range(n)] for i in range(n)]
    gamma = [
        [
            [
                sum(
                    (up[i][s] * (dlo[s][k][j] + dlo[s][j][k] - dlo[j][k][s]) for s in range(n)),
                    zero,
                )
                * Fraction(1, 2)
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return [
        [
            [-sum((up[i][s] * gamma[j][s][k] for s in range(n)), zero) for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]


@pytest.mark.parametrize("a", [(1, 2, 3, 4), (1, 2, 0, 4)])
def test_contravariant_connection_prints_as_the_covariant_route(a):
    n = len(a)
    vars = geo.field_vars(n)
    up, down, _ = geo.canonical_metric(a, 1)
    b = geo.christoffel(vars, up, down)
    ref = _covariant_route_b(vars, up, down)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert str(b[i][j][k]) == str(ref[i][j][k])


@pytest.mark.parametrize(
    "a,K", [((1, 2, 3), Fraction(1, 2)), ((2, 0, 3), Fraction(1, 2)), ((1, 2, 0, 4), 1)]
)
def test_inverted_down_prints_as_the_closed_form(a, K):
    # g^{ij} alone is inverted exactly; its connection and curvature print
    # as those of the closed-form g_{ij}
    vars = geo.field_vars(len(a))
    up, closed, _ = geo.canonical_metric(a, K)
    assert _strings(geo.christoffel(vars, up)) == _strings(geo.christoffel(vars, up, closed))
    assert _strings(oracles.riemann(vars, up)) == _strings(oracles.riemann(vars, up, closed))


def _strings(table) -> list:
    return [s for t in table for s in _strings(t)] if isinstance(table, tuple) else [str(table)]


def test_derived_symbols_are_levi_civita_on_the_degenerate_model():
    n, vars = 4, geo.field_vars(4)
    up, lo, _ = geo.canonical_metric([1, 2, 0, 4], 1)
    gam = oracles.gamma(lo, geo.christoffel(vars, up, lo))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                res = lo[i][j].diff(vars[k])
                for s in range(n):
                    res = res - gam[s][k][i] * lo[s][j] - gam[s][k][j] * lo[i][s]
                assert _zero(res)


def test_coordinates_geodesic_at_origin():
    # the closed-form family has vanishing symbols at u = 0
    vars = geo.field_vars(3)
    up, down, _ = geo.canonical_metric([1, 2, 3], Fraction(2, 3))
    gam = oracles.gamma(down, geo.christoffel(vars, up, down))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert gam[i][j][k].at_origin(vars).const_value() == 0


def test_canonical_metric_identity_case():
    up, down, det = geo.canonical_metric([1, 1], 0)
    assert _zero(det - Expr.const(1))
    for i in range(2):
        for j in range(2):
            assert _zero(up[i][j] - _delta(i, j))
            assert _zero(down[i][j] - _delta(i, j))


def test_canonical_metric_determinant_values():
    _, _, det = geo.canonical_metric([1, 2], 1)
    assert det.evaluate({"u1": 1, "u2": 1}) == -1
    _, _, det2 = geo.canonical_metric([1, 1], 1)
    assert det2.evaluate({"u1": Fraction(1, 2), "u2": Fraction(1, 2)}) == Fraction(1, 2)


def test_canonical_metric_determinant_closed_form():
    rng = random.Random(42)
    for n in (1, 2, 3, 4):
        a = [Fraction(rng.randint(1, 5), rng.randint(1, 2)) * rng.choice([-1, 1]) for _ in range(n)]
        K = Fraction(rng.randint(-3, 3) or 1, 2)
        up, _, det_closed = geo.canonical_metric(a, K)
        det_direct = oracles.det(up)
        assert (det_direct - det_closed).normal_form() == Expr.const(0).normal_form()


def test_degenerate_model():
    up, down, det = geo.canonical_metric([0, 1], 1)
    assert det.evaluate({"u1": Fraction(1, 2), "u2": Fraction(1, 3)}) == Fraction(-1, 4)
    # covariant data inverts the contravariant matrix exactly
    for i in range(2):
        for j in range(2):
            prod = sum((up[i][s] * down[s][j] for s in range(2)), Expr.const(0))
            assert _zero(prod - _delta(i, j))
    assert _zero(oracles.det(up) - det)


def test_degenerate_model_middle_index():
    up, down, _ = geo.canonical_metric([2, 0, 3], Fraction(1, 2))
    n = 3
    for i in range(n):
        for j in range(n):
            prod = sum((up[i][s] * down[s][j] for s in range(n)), Expr.const(0))
            assert _zero(prod - _delta(i, j))


def test_two_zero_constants_rejected():
    with pytest.raises(ValueError):
        geo.canonical_metric([0, 0, 1], 1)
    with pytest.raises(ValueError):
        geo.canonical_metric([0, 1], 0)
