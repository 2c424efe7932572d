"""Symbolic pseudo-Riemannian computations on exact metrics.

Index conventions used throughout:

* ``b[i][j][k]`` holds the Levi-Civita connection in contravariant form,
  b^{ij}_k = -g^{is} Gamma^j_{sk}.  It is computed from g^{ij} alone up
  to one lowering (Dubrovin & Novikov 1983):
  b^{jr}_k = g_{ki} T^{ijr}, where 2 T^{ijr} = D^{ijr} + D^{jir} - D^{rij}
  and D^{ijr} = g^{is} d_s g^{jr}.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence

from .expr import Expr, Zeroness, as_expr, grad, is_zero

__all__ = [
    "DegenerateMetricError",
    "christoffel",
    "canonical_metric",
    "canonical_constants",
    "field_vars",
]


class DegenerateMetricError(ValueError):
    """The symbolic determinant vanishes identically."""


def field_vars(n: int, prefix: str = "u") -> tuple:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


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


def christoffel(vars, up, down=None) -> tuple:
    """Levi-Civita connection b[j][r][k] = b^{jr}_k of the metric g^{ij} =
    ``up`` over ``vars``, with g_{ij} = ``down`` (the exact inverse when it
    is not given), computed in contravariant form: b^{jr}_k = g_{ki} T^{ijr}
    with 2 T^{ijr} = D^{ijr} + D^{jir} - D^{rij} and D^{ijr} = g^{is} d_s g^{jr}."""
    n, lo = len(vars), matrix_inverse(up) if down is None else down
    dup = grad(up, vars)  # d_s g^{jr}
    D = [[[_dot(up[i], dup[j][r]) for r in range(n)] for j in range(n)] for i in range(n)]
    half = Fraction(1, 2)
    T = [  # T[j][r][i] = T^{ijr}
        [[(D[i][j][r] + D[j][i][r] - D[r][i][j]) * half for i in range(n)] for r in range(n)]
        for j in range(n)
    ]
    return tuple(
        tuple(tuple(_dot(lo[k], T[j][r]) for k in range(n)) for r in range(n)) for j in range(n)
    )


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

    Returns (up, down, det): g^{ij}, the closed form of g_{ij} and the
    determinant of g^{ij}.  The determinant is the closed product form
    a^1...a^N (1 - K sum (u^s)^2/a^s).  At most one of the N+1 constants
    a^1..a^N, K may vanish; when some a^m = 0 the covariant components come
    from the degenerate closed-form model (g^{ij} is then singular along
    u^m = 0 but not identically).
    """
    a, K = canonical_constants(a, K)
    n = len(a)
    u = [Expr.var(v) for v in field_vars(n)]
    Ke = Expr.const(K)
    up = [
        [Expr.const(a[i] if i == j else 0) - Ke * u[i] * u[j] for j in range(n)] for i in range(n)
    ]
    if 0 not in a:
        disc = Expr.const(1) - sum((u[s] * u[s] * (K / a[s]) for s in range(n)), Expr.const(0))
        det = Expr.const(prod(a)) * disc
        lo = [
            [
                Expr.const(1 / a[i] if i == j else 0)
                + Ke * u[i] * u[j] / (Expr.const(a[i] * a[j]) * disc)
                for j in range(n)
            ]
            for i in range(n)
        ]
        return up, lo, det
    m = a.index(0)
    rest = [s for s in range(n) if s != m]
    det = Expr.const(-K * prod(a[s] for s in rest)) * u[m] * u[m]
    tail = Expr.const(1) - sum((u[s] * u[s] * (K / a[s]) for s in rest), Expr.const(0))
    lo = [[Expr.const(1 / a[i] if i == j != m else 0) for j in range(n)] for i in range(n)]
    lo[m][m] = -tail / (Ke * u[m] * u[m])
    for i in rest:
        lo[i][m] = lo[m][i] = -u[i] / (Expr.const(a[i]) * u[m])
    return up, lo, det
