"""Metric inversion, connection, curvature and the closed-form models."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hydrobrackets.expr import Expr, Zeroness, is_zero
from hydrobrackets import geometry as geo

UV = ("u1", "u2")


def _zero(e) -> bool:
    return is_zero(e) is Zeroness.ZERO


def _delta(i, j) -> Expr:
    return Expr.const(1 if i == j else 0)


def test_invert_constant_diagonal():
    g = geo.ContravariantMetric(
        vars=UV, entries=[[Expr.const(2), Expr.const(0)], [Expr.const(0), Expr.const(-3)]]
    )
    cov = geo.invert_metric(g)
    assert _zero(cov.entries[0][0] - Expr.const(Fraction(1, 2)))
    assert _zero(cov.entries[1][1] - Expr.const(Fraction(-1, 3)))
    assert _zero(cov.entries[0][1])


def test_invert_matches_closed_form():
    con, cov_closed, _ = geo.canonical_metric([1, 2], 1)
    cov = geo.invert_metric(con)
    for i in range(2):
        for j in range(2):
            assert _zero(cov.entries[i][j] - cov_closed.entries[i][j])


def test_inverse_identity_products():
    for a, K in ([(1, 3), Fraction(2)], [(2, -1, 3), Fraction(1, 2)]):
        con, cov, _ = geo.canonical_metric(a, K)
        n = len(a)
        for i in range(n):
            for j in range(n):
                prod = sum(
                    (con.entries[i][s] * cov.entries[s][j] for s in range(n)),
                    Expr.const(0),
                )
                assert _zero(prod - _delta(i, j))


def test_degenerate_metric_rejected():
    g = geo.ContravariantMetric(
        vars=UV,
        entries=[[Expr.var("u1"), Expr.var("u1")], [Expr.var("u1"), Expr.var("u1")]],
    )
    with pytest.raises(geo.DegenerateMetricError):
        geo.invert_metric(g)


def test_matrix_inverse_of_random_and_symbolic_matrices():
    # fraction-free elimination: seeded rational matrices with many zeros
    # (row swaps, some singular) and canonical metrics, A A^{-1} = I exactly
    rng = random.Random(11)
    entry = lambda: Fraction(rng.choice([0, 0, 1, -2, 3]), rng.randint(1, 3))  # noqa: E731
    sizes = [n for n in range(1, 6) for _ in range(8)]
    cases = [[[entry() for _ in range(n)] for _ in range(n)] for n in sizes]
    cases += [geo.canonical_metric(a, 1)[0].entries for a in ((1, 2, 3), (2, 0, 1, 3))]
    singular = 0
    for A in cases:
        n = len(A)
        if geo.det(A).is_zero():
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


def test_christoffel_constant_metric_vanishes():
    eta = geo.ContravariantMetric(
        vars=UV, entries=[[Expr.const(1), Expr.const(0)], [Expr.const(0), Expr.const(1)]]
    )
    conn = geo.christoffel(geo.invert_metric(eta))
    assert all(
        _zero(conn.gamma[i][j][k]) and _zero(conn.b[i][j][k])
        for i in range(2)
        for j in range(2)
        for k in range(2)
    )


def test_christoffel_scalar_constant_curvature():
    # one-component example: g^{11} = 1 - K u^2 with K = 1
    con, cov, _ = geo.canonical_metric([1], 1)
    conn = geo.christoffel(cov)
    u = Expr.var("u1")
    expect = u / (Expr.const(1) - u * u)
    assert _zero(conn.gamma[0][0][0] - expect)


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
    con = geo.ContravariantMetric(vars=vars, entries=g)
    conn = geo.christoffel(geo.invert_metric(con))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                expect = -Expr.const(K) * u[j] if i == k else Expr.const(0)
                assert _zero(conn.b[i][j][k] - expect)


def test_riemann_flat_metric_zero():
    eta = geo.ContravariantMetric(
        vars=UV, entries=[[Expr.const(1), Expr.const(0)], [Expr.const(0), Expr.const(-1)]]
    )
    R = geo.riemann(geo.invert_metric(eta))
    assert all(
        _zero(R.entries[i][j][k][l])
        for i in range(2)
        for j in range(2)
        for k in range(2)
        for l in range(2)
    )


def test_constant_curvature_residual_canonical():
    con, _, _ = geo.canonical_metric([1, 1], 1)
    res = geo.constant_curvature_residual(con, 1)
    assert all(
        _zero(res[i][j][k][l])
        for i in range(2)
        for j in range(2)
        for k in range(2)
        for l in range(2)
    )


def test_constant_curvature_residual_wrong_K():
    con, _, _ = geo.canonical_metric([1, 2], 1)
    res = geo.constant_curvature_residual(con, Fraction(3))
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
    eta = geo.ContravariantMetric(
        vars=UV, entries=[[Expr.const(1), Expr.const(0)], [Expr.const(0), Expr.const(1)]]
    )
    res = geo.constant_curvature_residual(eta, 1)
    assert any(
        is_zero(res[i][j][k][l]) is Zeroness.NONZERO
        for i in range(2)
        for j in range(2)
        for k in range(2)
        for l in range(2)
    )


def test_first_bianchi_identity():
    con, cov, _ = geo.canonical_metric([1, 2], Fraction(1, 2))
    R = geo.riemann(cov).entries
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    cyc = R[i][j][k][l] + R[i][k][l][j] + R[i][l][j][k]
                    assert _zero(cyc)


@pytest.mark.parametrize("n", [2, 3])
def test_levi_civita_compatibility(n):
    a = [Fraction(i + 1) for i in range(n)]
    con, cov, _ = geo.canonical_metric(a, Fraction(1, 3))
    conn = geo.christoffel(cov)
    vars = cov.vars
    lo = cov.entries
    for k in range(n):
        for i in range(n):
            for j in range(n):
                res = lo[i][j].diff(vars[k])
                res = res - sum(
                    (conn.gamma[s][k][i] * lo[s][j] for s in range(n)), Expr.const(0)
                )
                res = res - sum(
                    (conn.gamma[s][k][j] * lo[i][s] for s in range(n)), Expr.const(0)
                )
                assert _zero(res)


def _covariant_route_b(cov):
    """b^{ij}_k = -g^{is} Gamma^j_{sk}, with Gamma from the derivatives of
    the covariant components: the reference for the contravariant formula."""
    n, vars = cov.n, cov.vars
    up, lo = cov.contravariant.entries, cov.entries
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
    _, cov, _ = geo.canonical_metric(a, 1)
    conn = geo.christoffel(cov)
    ref = _covariant_route_b(cov)
    n = cov.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert str(conn.b[i][j][k]) == str(ref[i][j][k])


def test_derived_symbols_are_levi_civita_on_the_degenerate_model():
    _, cov, _ = geo.canonical_metric([1, 2, 0, 4], 1)
    conn = geo.christoffel(cov)
    n, vars, lo = cov.n, cov.vars, cov.entries
    for k in range(n):
        for i in range(n):
            for j in range(n):
                res = lo[i][j].diff(vars[k])
                for s in range(n):
                    res = res - conn.gamma[s][k][i] * lo[s][j] - conn.gamma[s][k][j] * lo[i][s]
                assert _zero(res)


def test_coordinates_geodesic_at_origin():
    # the closed-form family has vanishing symbols at u = 0
    con, cov, _ = geo.canonical_metric([1, 2, 3], Fraction(2, 3))
    conn = geo.christoffel(cov)
    at0 = {v: Fraction(0) for v in cov.vars}
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert conn.gamma[i][j][k].substitute(at0).const_value() == 0


def test_canonical_metric_identity_case():
    con, cov, det = geo.canonical_metric([1, 1], 0)
    assert _zero(det - Expr.const(1))
    for i in range(2):
        for j in range(2):
            assert _zero(con.entries[i][j] - _delta(i, j))
            assert _zero(cov.entries[i][j] - _delta(i, j))


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
        con, _, det_closed = geo.canonical_metric(a, K)
        det_direct = geo.det(con.entries)
        assert (det_direct - det_closed).normal_form() == Expr.const(0).normal_form()


def test_degenerate_model():
    con, cov, det = geo.canonical_metric([0, 1], 1)
    assert det.evaluate({"u1": Fraction(1, 2), "u2": Fraction(1, 3)}) == Fraction(-1, 4)
    # covariant data inverts the contravariant matrix exactly
    for i in range(2):
        for j in range(2):
            prod = sum(
                (con.entries[i][s] * cov.entries[s][j] for s in range(2)), Expr.const(0)
            )
            assert _zero(prod - _delta(i, j))
    assert _zero(geo.det(con.entries) - det)


def test_degenerate_model_middle_index():
    con, cov, det = geo.canonical_metric([2, 0, 3], Fraction(1, 2))
    n = 3
    for i in range(n):
        for j in range(n):
            prod = sum(
                (con.entries[i][s] * cov.entries[s][j] for s in range(n)), Expr.const(0)
            )
            assert _zero(prod - _delta(i, j))


@pytest.mark.parametrize(
    "vars,entries,message",
    [
        (UV, [[1, 0]], r"^metric matrix must be square$"),
        (("u1",), [[1, 0], [0, 1]], r"^variable list does not match matrix size$"),
        (UV, [[1, Expr.var("u1")], [0, 1]], r"^metric is not symmetric at \(1,2\)$"),
    ],
)
def test_contravariant_metric_rejects_malformed_data(vars, entries, message):
    with pytest.raises(ValueError, match=message):
        geo.ContravariantMetric(vars=vars, entries=entries)


def test_two_zero_constants_rejected():
    with pytest.raises(ValueError):
        geo.canonical_metric([0, 0, 1], 1)
    with pytest.raises(ValueError):
        geo.canonical_metric([0, 1], 0)
