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
    "Metric",
    "DegenerateMetricError",
    "christoffel",
    "gamma",
    "riemann",
    "constant_curvature_residual",
    "canonical_metric",
    "canonical_constants",
    "field_vars",
]


class DegenerateMetricError(ValueError):
    """The symbolic determinant vanishes identically."""


def field_vars(n: int, prefix: str = "u") -> tuple:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


def _freeze(entries):
    return tuple(tuple(as_expr(e) for e in row) for row in entries)


class Metric:
    """Symmetric matrix of expressions g^{ij}(u) (``up``) with its inverse
    g_{ij} (``down``): the exact inverse, computed on first use, unless the
    caller supplies a closed form."""

    def __init__(self, vars: tuple, up, down=None):
        n = len(up)
        if any(len(row) != n for row in up):
            raise ValueError("metric matrix must be square")
        self.vars, self.up = tuple(vars), _freeze(up)
        if len(vars) != n:
            raise ValueError("variable list does not match matrix size")
        for i in range(n):
            for j in range(i + 1, n):
                if is_zero(self.up[i][j] - self.up[j][i]) is Zeroness.NONZERO:
                    raise ValueError(f"metric is not symmetric at ({i + 1},{j + 1})")
        if down is not None:
            self.down = _freeze(down)

    @cached_property
    def down(self) -> tuple:
        return _freeze(matrix_inverse(self.up))


# ---------------------------------------------------------------------------
# exact linear algebra on expression matrices
# ---------------------------------------------------------------------------


def _dot(xs, ys) -> Expr:
    return sum((x * y for x, y in zip(xs, ys)), Expr.const(0))


def _eliminate(rows: list, n: int):
    """Fraction-free (Bareiss) Gauss-Jordan elimination on the first n
    columns of ``rows`` (n rows of Expr, possibly augmented), in place:
    every step divides exactly by the previous pivot, so the leading block
    ends as d I, where the last pivot d is the determinant times the sign of
    the row swaps.  Returns (d, sign), or None when a column has no entry
    that is not identically zero left to pivot on, which proves the matrix
    identically singular."""
    prev, sign = Expr.const(1), 1
    for c in range(n):
        p = next((r for r in range(c, n) if is_zero(rows[r][c]) is Zeroness.NONZERO), None)
        if p is None:
            return None
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            sign = -sign
        pivot, scale = rows[c], prev.reciprocal()
        same = (pivot[c] - prev).is_zero()  # a row with f = 0 is then scaled by 1
        for r in range(n):
            f = rows[r][c]
            if r != c and not (same and f.is_zero()):
                rows[r] = [(pivot[c] * x - f * y) * scale for x, y in zip(rows[r], pivot)]
        prev = pivot[c]
    return prev, sign


def det(entries) -> Expr:
    """Exact determinant, the last pivot of :func:`_eliminate` times the
    sign of its row swaps; 0 for an identically singular matrix."""
    n = len(entries)
    done = _eliminate([[as_expr(x) for x in row] for row in entries], n)
    if done is None:
        return Expr.const(0)
    d, sign = done
    return d if sign > 0 else -d


def matrix_inverse(entries) -> list:
    """Exact inverse by :func:`_eliminate` on [A | I]: the matrix ends as
    [d I | d A^{-1}], and one reciprocal of the last pivot d finishes.  An
    identically singular matrix raises DegenerateMetricError."""
    n = len(entries)
    rows = [
        [as_expr(x) for x in row] + [Expr.const(int(i == j)) for j in range(n)]
        for i, row in enumerate(entries)
    ]
    done = _eliminate(rows, n)
    if done is None:
        raise DegenerateMetricError("matrix is identically degenerate")
    scale = done[0].reciprocal()
    return [[x * scale for x in row[n:]] for row in rows]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def christoffel(g: Metric) -> tuple:
    """Levi-Civita connection b[j][r][k] = b^{jr}_k of the metric, computed
    in contravariant form: b^{jr}_k = g_{ki} T^{ijr} with
    2 T^{ijr} = D^{ijr} + D^{jir} - D^{rij} and D^{ijr} = g^{is} d_s g^{jr}."""
    n, up, lo = len(g.vars), g.up, g.down
    dup = [[[e.diff(v) for v in g.vars] for e in row] for row in up]  # d_s g^{jr}
    D = [[[_dot(up[i], dup[j][r]) for r in range(n)] for j in range(n)] for i in range(n)]
    half = Fraction(1, 2)
    T = [  # T[j][r][i] = T^{ijr}
        [[(D[i][j][r] + D[j][i][r] - D[r][i][j]) * half for i in range(n)] for r in range(n)]
        for j in range(n)
    ]
    return tuple(
        tuple(tuple(_dot(lo[k], T[j][r]) for k in range(n)) for r in range(n)) for j in range(n)
    )


def gamma(g: Metric, b) -> tuple:
    """Levi-Civita symbols Gamma[j][s][k] = Gamma^j_{sk} = -g_{si} b^{ij}_k
    from the connection b = christoffel(g)."""
    lo, n = g.down, len(g.vars)
    return tuple(
        tuple(
            tuple(-_dot(lo[s], [b[i][j][k] for i in range(n)]) for k in range(n))
            for s in range(n)
        )
        for j in range(n)
    )


def riemann(g: Metric) -> tuple:
    """Curvature tensor R[i][j][k][l] = R^i_{jkl} of the metric."""
    n, vars = len(g.vars), g.vars
    gam = gamma(g, christoffel(g))
    dgam = [
        [
            [[gam[i][j][k].diff(vars[l]) for l in range(n)] for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return tuple(
        tuple(
            tuple(
                tuple(
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
                )
                for k in range(n)
            )
            for j in range(n)
        )
        for i in range(n)
    )


def constant_curvature_residual(g: Metric, K) -> list:
    """Residuals R^i_{jkl} - K (delta^i_k g_{jl} - delta^i_l g_{jk});
    all zero exactly when g has constant curvature K."""
    K = as_expr(K)
    R, lo, n = riemann(g), g.down, len(g.vars)
    return [
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


def canonical_constants(a: Sequence, K) -> tuple:
    """The constants (a^1..a^N, K) of the constant-curvature family as
    Fractions.  Raises ValueError when more than one of them is zero."""
    a = [Fraction(x) for x in a]
    K = Fraction(K)
    if a.count(0) + (K == 0) > 1:
        raise ValueError("at most one of the constants a^1..a^N, K may be zero")
    return a, K


def canonical_metric(a: Sequence, K):
    """The constant-curvature family g^{ij} = a^i delta^{ij} - K u^i u^j.

    Returns (metric, determinant); the metric carries the closed form of
    g_{ij} as ``down``.  The determinant is the closed product form
    a^1...a^N (1 - K sum (u^s)^2/a^s).  At most one of the N+1 constants
    a^1..a^N, K may vanish; when some a^m = 0 the covariant components come
    from the degenerate closed-form model (g^{ij} is then singular along
    u^m = 0 but not identically).
    """
    a, K = canonical_constants(a, K)
    n = len(a)
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
        m = a.index(0)
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

    return Metric(vars, up, lo), det_expr
