"""Symbolic pseudo-Riemannian computations on exact metrics.

Index conventions used throughout:

* ``b[i][j][k]`` holds the Levi-Civita connection in contravariant form,
  b^{ij}_k = -g^{is} Gamma^j_{sk}.  It is computed from g^{ij} alone up
  to one lowering (Dubrovin & Novikov 1983):
  b^{jr}_k = g_{ki} T^{ijr}, where 2 T^{ijr} = D^{ijr} + D^{jir} - D^{rij}
  and D^{ijr} = g^{is} d_s g^{jr};
* ``Gamma[i][j][k]`` holds the Levi-Civita symbols Gamma^i_{jk}, derived
  from b as Gamma^j_{sk} = -g_{si} b^{ij}_k;
* ``R[i][j][k][l]`` holds the curvature tensor
  R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
            + Gamma^i_{ks} Gamma^s_{lj} - Gamma^i_{ls} Gamma^s_{kj}.

With these conventions a metric has constant curvature ``K`` exactly when
R^i_{jkl} = K (delta^i_k g_{jl} - delta^i_l g_{jk}); the sign was pinned
once against the closed-form constant-curvature family built by
:func:`canonical_metric` and is locked in by the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .expr import Expr, Zeroness, as_expr, is_zero

__all__ = [
    "ContravariantMetric",
    "CovariantMetric",
    "Connection",
    "CurvatureTensor",
    "DegenerateMetricError",
    "invert_metric",
    "christoffel",
    "riemann",
    "constant_curvature_residual",
    "canonical_metric",
    "field_vars",
]


class DegenerateMetricError(ValueError):
    """The symbolic determinant vanishes identically."""


def field_vars(n: int, prefix: str = "u") -> tuple:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


def _check_square(entries) -> int:
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise ValueError("metric matrix must be square")
    return n


def _freeze(entries):
    return tuple(tuple(as_expr(e) for e in row) for row in entries)


class ContravariantMetric:
    """Symmetric matrix of expressions g^{ij}(u)."""

    def __init__(self, vars: tuple, entries: tuple):
        n = _check_square(entries)
        self.vars, self.entries = vars, _freeze(entries)
        if len(vars) != n:
            raise ValueError("variable list does not match matrix size")
        for i in range(n):
            for j in range(i + 1, n):
                if is_zero(self.entries[i][j] - self.entries[j][i]) is Zeroness.NONZERO:
                    raise ValueError(f"metric is not symmetric at ({i + 1},{j + 1})")

    @property
    def n(self) -> int:
        return len(self.vars)


class CovariantMetric:
    """Symmetric matrix g_{ij}(u), optionally carrying its contravariant partner."""

    def __init__(
        self, vars: tuple, entries: tuple, contravariant: ContravariantMetric | None = None
    ):
        _check_square(entries)
        self.vars, self.entries, self.contravariant = vars, _freeze(entries), contravariant

    @property
    def n(self) -> int:
        return len(self.vars)


class Connection:
    """Levi-Civita connection b^{ij}_k of a metric, with its symbols
    Gamma^j_{sk} = -g_{si} b^{ij}_k derived on first use."""

    def __init__(self, metric: CovariantMetric, b: tuple):
        self.vars, self.metric, self.b = metric.vars, metric, b

    @cached_property
    def gamma(self) -> tuple:
        lo, b, n = self.metric.entries, self.b, self.n
        return tuple(
            tuple(
                tuple(-_dot(lo[s], [b[i][j][k] for i in range(n)]) for k in range(n))
                for s in range(n)
            )
            for j in range(n)
        )

    @property
    def n(self) -> int:
        return len(self.vars)


class CurvatureTensor:
    def __init__(self, vars: tuple, entries: tuple):
        self.vars = vars
        self.entries = entries  # R[i][j][k][l] = R^i_{jkl}

    @property
    def n(self) -> int:
        return len(self.vars)


# ---------------------------------------------------------------------------
# exact linear algebra on expression matrices
# ---------------------------------------------------------------------------


def _dot(xs, ys) -> Expr:
    return sum((x * y for x, y in zip(xs, ys)), Expr.const(0))


def det(entries) -> Expr:
    """Determinant by cofactor expansion; its cost grows as n!, so it serves
    small matrices only."""
    n = len(entries)
    if n == 1:
        return as_expr(entries[0][0])
    if n == 2:
        a, b_, c, d = entries[0][0], entries[0][1], entries[1][0], entries[1][1]
        return as_expr(a) * d - as_expr(b_) * c
    total = Expr.const(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = as_expr(entries[0][j]) * det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def matrix_inverse(entries) -> list:
    """Exact inverse by fraction-free (Bareiss) Gauss-Jordan elimination:
    every step divides exactly by the previous pivot, so the matrix ends as
    [d I | d A^{-1}] and one reciprocal of the last pivot d finishes.  A
    column with no entry that is not identically zero left to pivot on
    proves identic degeneracy, which raises."""
    n = len(entries)
    rows = [
        [as_expr(x) for x in row] + [Expr.const(int(i == j)) for j in range(n)]
        for i, row in enumerate(entries)
    ]
    prev = Expr.const(1)
    for c in range(n):
        p = next((r for r in range(c, n) if is_zero(rows[r][c]) is Zeroness.NONZERO), None)
        if p is None:
            raise DegenerateMetricError("matrix is identically degenerate")
        rows[c], rows[p] = rows[p], rows[c]
        pivot, scale = rows[c], prev.reciprocal()
        same = (pivot[c] - prev).is_zero()  # a row with f = 0 is then scaled by 1
        for r in range(n):
            f = rows[r][c]
            if r != c and not (same and f.is_zero()):
                rows[r] = [(pivot[c] * x - f * y) * scale for x, y in zip(rows[r], pivot)]
        prev = pivot[c]
    scale = prev.reciprocal()
    return [[x * scale for x in row[n:]] for row in rows]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def invert_metric(g: ContravariantMetric) -> CovariantMetric:
    return CovariantMetric(vars=g.vars, entries=matrix_inverse(g.entries), contravariant=g)


def christoffel(g_cov: CovariantMetric) -> Connection:
    """Levi-Civita connection of the metric, computed in contravariant form:
    b^{jr}_k = g_{ki} T^{ijr} with 2 T^{ijr} = D^{ijr} + D^{jir} - D^{rij}
    and D^{ijr} = g^{is} d_s g^{jr}."""
    n, lo = g_cov.n, g_cov.entries
    up = matrix_inverse(lo) if g_cov.contravariant is None else g_cov.contravariant.entries
    dup = [[[e.diff(v) for v in g_cov.vars] for e in row] for row in up]  # d_s g^{jr}
    D = [[[_dot(up[i], dup[j][r]) for r in range(n)] for j in range(n)] for i in range(n)]
    half = Fraction(1, 2)
    T = [  # T[j][r][i] = T^{ijr}
        [[(D[i][j][r] + D[j][i][r] - D[r][i][j]) * half for i in range(n)] for r in range(n)]
        for j in range(n)
    ]
    b = tuple(
        tuple(tuple(_dot(lo[k], T[j][r]) for k in range(n)) for r in range(n)) for j in range(n)
    )
    return Connection(g_cov, b)


def riemann(g_cov: CovariantMetric) -> CurvatureTensor:
    n = g_cov.n
    vars = g_cov.vars
    gam = christoffel(g_cov).gamma
    dgam = [
        [
            [[gam[i][j][k].diff(vars[l]) for l in range(n)] for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    ent = [
        [
            [
                [
                    dgam[i][l][j][k]
                    - dgam[i][k][j][l]
                    + sum(
                        (
                            gam[i][k][s] * gam[s][l][j] - gam[i][l][s] * gam[s][k][j]
                            for s in range(n)
                        ),
                        Expr.const(0),
                    )
                    for l in range(n)
                ]
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    ent = tuple(tuple(tuple(tuple(r) for r in q) for q in p) for p in ent)
    return CurvatureTensor(vars=vars, entries=ent)


def constant_curvature_residual(g: ContravariantMetric, K) -> list:
    """Residuals R^i_{jkl} - K (delta^i_k g_{jl} - delta^i_l g_{jk});
    all zero exactly when g has constant curvature K."""
    K = as_expr(K)
    cov = invert_metric(g)
    R = riemann(cov).entries
    lo = cov.entries
    n = g.n
    out = [
        [
            [
                [
                    R[i][j][k][l]
                    - K
                    * (
                        (lo[j][l] if i == k else Expr.const(0))
                        - (lo[j][k] if i == l else Expr.const(0))
                    )
                    for l in range(n)
                ]
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return out


def canonical_metric(a: Sequence, K):
    """The constant-curvature family g^{ij} = a^i delta^{ij} - K u^i u^j.

    Returns (contravariant, covariant, determinant).  The determinant is the
    closed product form a^1...a^N (1 - K sum (u^s)^2/a^s).  At most one of
    the N+1 constants a^1..a^N, K may vanish; when some a^m = 0 the covariant
    components come from the degenerate closed-form model (the contravariant
    matrix is then singular along u^m = 0 but not identically).
    """
    a = [Fraction(x) for x in a]
    K = Fraction(K)
    n = len(a)
    zeros = [i for i, x in enumerate(a) if x == 0] + ([n] if K == 0 else [])
    if len(zeros) > 1:
        raise ValueError(
            "at most one of the constants a^1..a^N, K may be zero"
        )
    vars = field_vars(n)
    u = [Expr.var(v) for v in vars]
    Ke = Expr.const(K)

    up = [
        [
            (Expr.const(a[i]) if i == j else Expr.const(0)) - Ke * u[i] * u[j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    contra = ContravariantMetric(vars=vars, entries=up)

    if all(x != 0 for x in a):
        disc = Expr.const(1) - sum(
            (u[s] * u[s] * Fraction(1, 1) / a[s] * K for s in range(n)), Expr.const(0)
        )
        prod_a = Fraction(1)
        for x in a:
            prod_a *= x
        det_expr = Expr.const(prod_a) * disc
        lo = [
            [
                (Expr.const(Fraction(1, 1) / a[i]) if i == j else Expr.const(0))
                + Ke * u[i] * u[j] / (Expr.const(a[i] * a[j]) * disc)
                for j in range(n)
            ]
            for i in range(n)
        ]
    else:
        m = zeros[0]
        prod_rest = Fraction(1)
        for s in range(n):
            if s != m:
                prod_rest *= a[s]
        det_expr = Expr.const(-K * prod_rest) * u[m] * u[m]
        lo = [[Expr.const(0) for _ in range(n)] for _ in range(n)]
        tail = Expr.const(1) - sum(
            (u[s] * u[s] * (K / a[s]) for s in range(n) if s != m), Expr.const(0)
        )
        lo[m][m] = -tail / (Ke * u[m] * u[m])
        for i in range(n):
            if i == m:
                continue
            lo[i][i] = Expr.const(Fraction(1, 1) / a[i])
            lo[i][m] = lo[m][i] = -u[i] / (Expr.const(a[i]) * u[m])

    cov = CovariantMetric(vars=vars, entries=lo, contravariant=contra)
    return contra, cov, det_expr
