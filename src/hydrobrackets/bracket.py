"""Poisson-hood, compatibility and Liouville-structure analysis for
nonlocal brackets of hydrodynamic type.

A bracket is the data (g^{ij}(u), b^{ij}_k(u), K): metric coefficient,
connection coefficient, and the constant weight of the nonlocal tail
K u^i_x (d/dx)^{-1} u^j_x.  No conditions are imposed at construction;
degenerate and non-Poisson data are legal inputs, and the checkers report
per-condition verdicts with witnesses for failures.

Condition families:

* ``s1``..``s5``  -- the five residual families equivalent to the Jacobi
  identity for a general (possibly degenerate) bracket; s4, s5 and c2 read
  one cached curl table of b;
* ``c1``, ``c2``  -- compatibility with a constant bracket eta d/dx,
  expressed in the flat coordinates of eta;
* ``ass1``, ``ass2`` -- the nonlinear equations on potentials H^i under
  which the canonical pair construction yields a Poisson bracket.

s3, c1 and ass2 are one antisymmetrised contraction sum_s g^{is} X^{jr}_s
- (i <-> j) (``_skew_pairs``), of (g, b), (eta, b) and (g1, eta d2H).  Every
sum over s skips exact-zero products: it runs over the set bits of the
support masks (``_masks``) of the tables it reads.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property

from .expr import (
    Expr,
    Zeroness,
    as_expr,
    grad,
    is_zero,
    random_rational_point,
)
from .geometry import DegenerateMetricError, matrix_inverse
from .poly import ray_integral, var_key

__all__ = [
    "HydroBracket",
    "ConstantBracket",
    "CanonicalPair",
    "PoissonReport",
    "ConditionResult",
    "Witness",
    "NotLiouvilleError",
    "NotSpecialError",
    "UnsupportedIntegrandError",
    "check_poisson",
    "check_compat_constant",
    "check_pencil",
    "build_canonical",
    "check_canonical_equations",
    "equivalence_audit",
    "liouville_function",
    "special_liouville",
    "operator_matrix",
    "functional_bracket_density",
]


class NotLiouvilleError(ValueError):
    def __init__(self, message, indices=None):
        super().__init__(message)
        self.indices = indices


class NotSpecialError(ValueError):
    def __init__(self, message, indices=None):
        super().__init__(message)
        self.indices = indices


class UnsupportedIntegrandError(ValueError):
    """Path integral leaves the rational closure."""


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------


class HydroBracket:
    """Coefficients (g, b, K) of a hydrodynamic-type bracket.

    ``g[i][j]`` is g^{ij}(u), ``b[i][j][k]`` is b^{ij}_k(u); ``K`` is the
    nonlocal constant (held as an expression so that bracket pencils can
    carry a formal parameter).  Nothing is validated beyond shapes.
    """

    def __init__(self, vars: tuple, g: tuple, b: tuple, K: Expr):
        n = len(vars)
        g = tuple(tuple(as_expr(e) for e in row) for row in g)
        b = tuple(tuple(tuple(as_expr(e) for e in row) for row in plane) for plane in b)
        if len(g) != n or any(len(r) != n for r in g):
            raise ValueError("g must be N x N")
        if len(b) != n or any(
            len(p) != n or any(len(r) != n for r in p) for p in b
        ):
            raise ValueError("b must be N x N x N")
        self.vars, self.g, self.b, self.K = vars, g, b, as_expr(K)

    @property
    def n(self) -> int:
        return len(self.vars)

    @cached_property
    def _curl(self):
        """curl[j][r][x][y] = d_y b^{jr}_x - d_x b^{jr}_y, the one table that
        s4, s5 and c2 read."""
        R = range(self.n)
        db = grad(self.b, self.vars)
        return [[[[d[x][y] - d[y][x] for y in R] for x in R] for d in row] for row in db]


def _masks(table):
    """Support masks over the last index s: of a row of Expr, the int with
    bit s set where row[s] is not identically zero; of a deeper table, the
    masks of each entry, nesting as ``grad`` does.  A product with an
    exact-zero factor is zero, and adding zero returns the other operand
    unchanged, so a sum over the set bits of its masks gives the same Expr
    as the dense sum."""
    if isinstance(table[0], Expr):
        return sum(1 << s for s, e in enumerate(table) if not e.is_zero())
    return [_masks(t) for t in table]


@cache
def _bits(mask: int) -> tuple:
    """The set bits of ``mask`` in increasing order (masks stay below 2^N)."""
    return tuple(s for s in range(mask.bit_length()) if mask >> s & 1)


def _contract(matrix, vec) -> tuple:
    """matrix . vec for a constant matrix and a vector of expressions; zero
    entries of the matrix cost nothing."""
    zero = Expr.const(0)
    return tuple(
        sum((Expr.const(c) * x for c, x in zip(row, vec) if c), zero) for row in matrix
    )


class ConstantBracket:
    """Constant bracket eta^{ij} d/dx with exact inverse eta_{ij}: ``up`` is
    eta^{ij}, ``down`` is eta_{ij}."""

    def __init__(self, up: tuple):
        up = tuple(tuple(Fraction(x) for x in row) for row in up)
        n = len(up)
        if any(len(r) != n for r in up):
            raise ValueError("eta must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if up[i][j] != up[j][i]:
                    raise ValueError("eta must be symmetric")
        try:
            inv = matrix_inverse([[Expr.const(x) for x in row] for row in up])
        except DegenerateMetricError:
            raise ValueError("eta is singular") from None
        self.up = up
        self.down = tuple(tuple(a.const_value() for a in row) for row in inv)

    @property
    def n(self) -> int:
        return len(self.up)

    def lower(self, vec) -> tuple:
        """The covector eta_{jl} vec^l."""
        return _contract(self.down, vec)

    def lift(self, covec) -> tuple:
        """The vector eta^{ij} covec_j."""
        return _contract(self.up, covec)

    def as_hydro(self, vars) -> HydroBracket:
        n = self.n
        zero = Expr.const(0)
        return HydroBracket(
            vars=tuple(vars),
            g=tuple(tuple(Expr.const(self.up[i][j]) for j in range(n)) for i in range(n)),
            b=tuple(
                tuple(tuple(zero for _ in range(n)) for _ in range(n)) for _ in range(n)
            ),
            K=zero,
        )


class CanonicalPair:
    """Data (eta, K, H^i) generating a canonical compatible operator pair."""

    def __init__(self, eta: ConstantBracket, K: Expr, H: tuple, vars: tuple):
        H = tuple(as_expr(h) for h in H)
        if len(H) != eta.n:
            raise ValueError("H must have one potential per field component")
        if len(vars) != eta.n:
            raise ValueError("variable list must match eta")
        self.eta, self.K, self.H, self.vars = eta, as_expr(K), H, vars

    @property
    def n(self) -> int:
        return len(self.vars)

    @cached_property
    def _derivatives(self):
        """(dH, d2H) of the potentials in the field variables, taken once:
        dH[i][k] = dH^i/du^k and d2H[i][k][l] = d2H^i/du^k du^l."""
        dH = grad(self.H, self.vars)
        return dH, grad(dH, self.vars)

    @cached_property
    def _lifted_d2H(self):
        """L[j][k][i] = eta^{is} d2H^j/du^s du^k, formed once per pair: the
        canonical b1, ass1 and ass2 all read it (the Hessian is symmetric)."""
        _, d2H = self._derivatives
        return [[self.eta.lift(row) for row in hess] for hess in d2H]

    @cached_property
    def _bracket(self) -> HydroBracket:
        """The canonical bracket in the field variables, built once."""
        return build_canonical(self)


# A NonZero condition's witness: the 1-based indices of the first residual
# that is not identically zero, a rational point and its value there.  A
# condition carries one when its status is NonZero, and None otherwise.
Witness = namedtuple("Witness", "indices point value")
ConditionResult = namedtuple("ConditionResult", "name status witness", defaults=(None,))


class PoissonReport:
    def __init__(self, conditions: list, extras: dict | None = None):
        self.conditions = conditions
        self.extras = {} if extras is None else extras

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.conditions, self.extras) == (other.conditions, other.extras)

    @property
    def passed(self) -> bool:
        return all(c.status is Zeroness.ZERO for c in self.conditions)


# ---------------------------------------------------------------------------
# verdict machinery
# ---------------------------------------------------------------------------


def _find_witness(e: Expr, indices, rng) -> Witness:
    vars = sorted(e.free_vars(), key=var_key)
    for _ in range(100):
        point = random_rational_point(vars, rng)
        try:
            val = e.evaluate(point)
        except ZeroDivisionError:
            continue
        if val != 0:
            return Witness(indices=indices, point=point, value=val)
    raise ValueError("failed to locate a witness probe point")


def _judge(name: str, residuals, rng) -> ConditionResult:
    """Zero when every residual vanishes identically, else NonZero with a
    witness drawn from ``rng``.  Residuals come out of exact arithmetic, so
    they are rational and the verdict is exact."""
    for indices, e in residuals:
        if is_zero(e) is Zeroness.NONZERO:
            witness = _find_witness(e, indices, rng)
            return ConditionResult(name, Zeroness.NONZERO, witness)
    return ConditionResult(name, Zeroness.ZERO)


def _rng(rng):
    return rng if rng is not None else random.Random(0)


def _report(families, rng=None) -> PoissonReport:
    """Judge each (name, residuals) family in order, all with one rng."""
    rng = _rng(rng)
    return PoissonReport([_judge(name, residuals, rng) for name, residuals in families])


# ---------------------------------------------------------------------------
# the five general residual families
# ---------------------------------------------------------------------------


def _s4_curvature(B: HydroBracket):
    """The derivative/curvature half of s4, by (i, j, r, k):
    g^{is} curl[j][r][s][k] - K(delta^j_k g^{ir} - delta^r_k g^{ij}).
    s4 adds the associativity half b^{ij}_s b^{sr}_k - b^{ir}_s b^{sj}_k."""
    n = B.n
    g, K, curl = B.g, B.K, B._curl
    gs, cs = _masks(g), _masks(curl)
    zero = Expr.const(0)
    for i, j, r, k in itertools.product(range(n), repeat=4):
        res = sum((g[i][s] * curl[j][r][s][k] for s in _bits(gs[i] & cs[j][r][k])), zero)
        rhs = (g[i][r] if j == k else zero) - (g[i][j] if r == k else zero)
        yield (i + 1, j + 1, r + 1, k + 1), res - K * rhs


def _skew_pairs(g, X):
    """sum_s g^{is} X^{jr}_s - g^{js} X^{ir}_s by (i, j, r), i < j: the
    contraction of s3 (g, b), c1 (eta, b) and ass2 (g1, w).  The sum runs
    over the s at which some product has no exact-zero factor, which gives
    the same Expr as the dense sum."""
    n = len(g)
    gs, xs = _masks(g), _masks(X)
    zero = Expr.const(0)
    for i in range(n):
        for j in range(i + 1, n):
            for r in range(n):
                on = _bits(gs[i] & xs[j][r] | gs[j] & xs[i][r])
                res = sum((g[i][s] * X[j][r][s] - g[j][s] * X[i][r][s] for s in on), zero)
                yield (i + 1, j + 1, r + 1), res


def _s_residuals(B: HydroBracket):
    """Yield the condition families (name, generator of (indices, residual)).
    The sums of s4 and s5 skip the indices at which every product has an
    exact-zero factor (``_masks``)."""
    n = B.n
    g, b, K, curl = B.g, B.b, B.K, B._curl
    dg = grad(g, B.vars)
    R = range(n)
    bs, cs = _masks(b), _masks(curl)
    bt = _masks([[[b[s][j][k] for s in R] for k in R] for j in R])  # [j][k][s] = b^{sj}_k
    zero = Expr.const(0)

    def s1():
        for i in range(n):
            for j in range(i + 1, n):
                yield (i + 1, j + 1), g[i][j] - g[j][i]

    def s2():
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    yield (i + 1, j + 1, k + 1), dg[i][j][k] - b[i][j][k] - b[j][i][k]

    def s4():
        for indices, curvature in _s4_curvature(B):
            i, j, r, k = (x - 1 for x in indices)
            on = _bits(bs[i][j] & bt[r][k] | bs[i][r] & bt[j][k])
            assoc = sum(
                (b[i][j][s] * b[s][r][k] - b[i][r][s] * b[s][j][k] for s in on), zero
            )
            yield indices, curvature + assoc

    def s5():
        for i, j, r in itertools.product(range(n), repeat=3):
            if (i, j, r) != min((i, j, r), (j, r, i), (r, i, j)):
                continue
            for k in range(n):
                for p in range(k, n):
                    res = zero
                    for a, bb, c in ((i, j, r), (j, r, i), (r, i, j)):
                        on = _bits(bt[a][p] & cs[bb][c][k] | bt[a][k] & cs[bb][c][p])
                        t = sum(
                            (b[s][a][p] * curl[bb][c][k][s] + b[s][a][k] * curl[bb][c][p][s]
                             for s in on),
                            zero,
                        )
                        if c == p:
                            t = t + K * (b[a][bb][k] - b[bb][a][k])
                        if c == k:
                            t = t + K * (b[a][bb][p] - b[bb][a][p])
                        res = res + t
                    yield (i + 1, j + 1, r + 1, k + 1, p + 1), res

    return [("s1", s1()), ("s2", s2()), ("s3", _skew_pairs(g, b)), ("s4", s4()), ("s5", s5())]


def _c_residuals(B: HydroBracket, eta: ConstantBracket):
    """The families c1, c2 of compatibility with eta d/dx, as
    (name, generator of (indices, residual))."""
    n = B.n
    b, K, curl = B.b, B.K, B._curl

    def c2():
        for j in range(n):
            for r in range(n):
                for s in range(n):
                    for k in range(s + 1, n):
                        rhs = int(r == s and j == k) - int(j == s and r == k)
                        yield (j + 1, r + 1, s + 1, k + 1), curl[j][r][s][k] - K * Expr.const(rhs)

    up = [[Expr.const(x) for x in row] for row in eta.up]
    return [("c1", _skew_pairs(up, b)), ("c2", c2())]


def check_poisson(B: HydroBracket, rng=None) -> PoissonReport:
    """Decide Poisson-hood of a general bracket through the five residual
    families; degenerate metrics are allowed."""
    return _report(_s_residuals(B), rng)


def check_compat_constant(
    B: HydroBracket, eta: ConstantBracket, rng=None
) -> PoissonReport:
    """Compatibility of B with the constant bracket eta d/dx (B expressed in
    the flat coordinates of eta): residuals c1, c2 plus B's own s1..s5."""
    if eta.n != B.n:
        raise ValueError("dimension mismatch")
    return _report(_s_residuals(B) + _c_residuals(B, eta), rng)


def check_pencil(
    B1: HydroBracket, B2: HydroBracket, rng=None
) -> PoissonReport:
    """Run the Poisson check on the formal combination B1 + lam B2.

    The pencil parameter is an ordinary extra polynomial variable, so
    "Poisson for all lam" becomes coefficient-wise vanishing and is decided
    exactly.  The report also names the local member of the pencil: the
    combination lam0 K1 + lam1 K2 = 0 whose nonlocal constant cancels.
    """
    if B1.vars != B2.vars:
        raise ValueError("pencil members must share coordinates")
    n = B1.n
    lam_name = "lam"
    while lam_name in B1.vars:
        lam_name += "_"
    lam = Expr.var(lam_name)
    g = [[B1.g[i][j] + lam * B2.g[i][j] for j in range(n)] for i in range(n)]
    b = [
        [[B1.b[i][j][k] + lam * B2.b[i][j][k] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    pencil = HydroBracket(vars=B1.vars, g=g, b=b, K=B1.K + lam * B2.K)
    report = check_poisson(pencil, rng=rng)
    report.extras["pencil_parameter"] = lam_name
    report.extras["local_member"] = _local_member(B1.K, B2.K)
    return report


def _local_member(K1: Expr, K2: Expr):
    """Coefficients (lam0, lam1) with lam0 K1 + lam1 K2 = 0, normalized."""
    if not (K1.is_const() and K2.is_const()):
        return None
    k1, k2 = K1.const_value(), K2.const_value()
    if k1 == 0 and k2 == 0:
        return (Fraction(1), Fraction(1))  # every member is local
    lam0, lam1 = k2, -k1
    if lam0 != 0:
        lam1 /= lam0
        lam0 = Fraction(1)
    else:
        lam1 = Fraction(1)
    return (lam0, lam1)


# ---------------------------------------------------------------------------
# the canonical pair
# ---------------------------------------------------------------------------


def build_canonical(P: CanonicalPair) -> HydroBracket:
    """Bracket generated by potentials H^i against the constant bracket:
    g1^{ij} = eta^{is} dH^j/du^s + eta^{js} dH^i/du^s - K u^i u^j,
    b1^{ij}_k = eta^{is} d2H^j/du^s du^k - K delta^i_k u^j."""
    n = P.n
    K = P.K
    u = [Expr.var(v) for v in P.vars]
    zero = Expr.const(0)
    dH, _ = P._derivatives
    lift_dH = [P.eta.lift(dH[j]) for j in range(n)]
    L = P._lifted_d2H
    g = [
        [lift_dH[j][i] + lift_dH[i][j] - K * u[i] * u[j] for j in range(n)]
        for i in range(n)
    ]
    b = [
        [
            [L[j][k][i] - (K * u[j] if i == k else zero) for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return HydroBracket(vars=P.vars, g=g, b=b, K=K)


def operator_matrix(B: HydroBracket, S: Expr) -> list:
    """The operator of the bracket applied to the gradient of S, as the
    matrix M^i_k = g^{ij} d2S/du^j du^k + b^{ij}_k dS/du^j + K S delta^i_k
    of the flow u^i_t = M^i_k u^k_x; the nonlocal tail is resolved through
    (d/dx)^{-1}(u^j_x dS/du^j) = S(u)."""
    n = B.n
    Sj = grad(S, B.vars)
    Sjk = grad(Sj, B.vars)
    zero = Expr.const(0)
    return [
        [
            sum((B.g[i][j] * Sjk[j][k] for j in range(n)), zero)
            + sum((B.b[i][j][k] * Sj[j] for j in range(n)), zero)
            + (B.K * S if i == k else zero)
            for k in range(n)
        ]
        for i in range(n)
    ]


def _ass_residuals(P: CanonicalPair):
    """The families ass1, ass2 on the potentials H^i, as (name, generator of
    (indices, residual)).  Both read the pair's lifted Hessians L, and ass2
    is the contraction of s3 (``_skew_pairs``) of g1 and w^{jk}_s =
    L[k][s][j].  Their sums over s skip the indices at which every product
    has an exact-zero factor."""
    n = P.n
    zero = Expr.const(0)
    _, d2H = P._derivatives
    L = P._lifted_d2H

    def ass1():
        # d2H^i/du^k du^s eta^{sp} d2H^j/du^p du^l - (i <-> j)
        hs, ls = _masks(d2H), _masks(L)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    for l in range(n):
                        on = _bits(hs[i][k] & ls[j][l] | hs[j][k] & ls[i][l])
                        res = sum(
                            (
                                d2H[i][k][s] * L[j][l][s] - d2H[j][k][s] * L[i][l][s]
                                for s in on
                            ),
                            zero,
                        )
                        yield (i + 1, j + 1, k + 1, l + 1), res

    # w^{jk}_s = b1^{jk}_s + K delta^j_s u^k = eta^{jp} d2H^k/du^p du^s
    g1 = P._bracket.g
    R = range(n)
    w = [[[L[k][s][j] for s in R] for k in R] for j in R]
    return [("ass1", ass1()), ("ass2", _skew_pairs(g1, w))]


def check_canonical_equations(P: CanonicalPair, rng=None) -> PoissonReport:
    """Decide Poisson-hood of the canonical bracket through the potential
    equations ass1, ass2 (``_ass_residuals``), whose vanishing is equivalent
    to it."""
    return _report(_ass_residuals(P), rng)


def equivalence_audit(P: CanonicalPair, rng=None) -> PoissonReport:
    """Judge the potential equations (first, with ``rng``), then check that
    the direct Poisson check of the built bracket gives the same verdict and
    that the s4 family degenerates to the quadratic associativity form for
    canonical brackets.  Returns the report of the potential equations, with
    ``extras["inconsistency"]`` None or the first disagreement found, which
    indicates an implementation bug."""
    rng = _rng(rng)
    B = P._bracket
    report = check_canonical_equations(P, rng=rng)
    direct = check_poisson(B, rng=rng).passed
    if direct != report.passed:
        inconsistency = (
            f"direct check says poisson={direct} but potential equations "
            f"say poisson={report.passed}"
        )
    # For canonical brackets the derivative part of s4 cancels the curvature
    # term identically, leaving b.b - b.b associativity; verify the identity.
    elif _judge("s4_assoc", _s4_curvature(B), rng).status is Zeroness.NONZERO:
        inconsistency = "s4 does not reduce to the associativity form on a canonical bracket"
    else:
        inconsistency = None
    report.extras["inconsistency"] = inconsistency
    return report


# ---------------------------------------------------------------------------
# Liouville structure
# ---------------------------------------------------------------------------


def _nonclosed_at(omegas, vars):
    """The first (k, l), k < l, 0-based, at which the 1-form omega_k du^k is
    not closed (d_l omega_k != d_k omega_l), or None when it is closed."""
    n = len(vars)
    for k in range(n):
        for l in range(k + 1, n):
            res = omegas[k].diff(vars[l]) - omegas[l].diff(vars[k])
            if is_zero(res) is Zeroness.NONZERO:
                return k, l
    return None


def _at_origin(e: Expr, vars, name: str) -> Expr:
    """e at the origin of ``vars``, the basepoint of every path integral."""
    try:
        return e.at_origin(vars)
    except ZeroDivisionError:
        raise UnsupportedIntegrandError(
            f"path integral outside the rational closure ({name} is singular "
            "at the origin)"
        ) from None


def _potentials(forms, vars, not_closed) -> tuple:
    """The ray potentials of the 1-forms ``forms``, in order, all checked before any is
    integrated: at the first not closed, ``not_closed(index, k, l)`` (0-based) is raised."""
    for index, omegas in enumerate(forms):
        if (bad := _nonclosed_at(omegas, vars)) is not None:
            raise not_closed(index, *bad)
    potentials = []
    for omegas in forms:
        if not all(w.is_poly() for w in omegas):
            raise UnsupportedIntegrandError(
                "path integral outside the rational closure (non-polynomial 1-form)"
            )
        potentials.append(Expr(ray_integral([w.num for w in omegas], vars)))
    return tuple(potentials)


def liouville_function(B: HydroBracket) -> tuple:
    """The Liouville function Phi^{ij}, as a tuple of rows, with
    b^{ij}_k = dPhi^{ij}/du^k - K delta^i_k u^j and
    g^{ij} = Phi^{ij} + Phi^{ji} - K u^i u^j, normalizing the path integral
    to Phi(0) = 0 and then shifting by the constant matrix g(0)/2."""
    n = B.n
    vars = B.vars
    u = [Expr.var(v) for v in vars]
    zero = Expr.const(0)
    # A^{ij}_k = b^{ij}_k + K delta^i_k u^j, (i, j) in row-major order: for a canonical
    # bracket this is eta^{is} d2H^j/du^s du^k, for a Liouville one dPhi^{ij}/du^k
    A = [
        [B.b[i][j][k] + (B.K * u[j] if i == k else zero) for k in range(n)]
        for i in range(n) for j in range(n)
    ]
    potentials = _potentials(
        A,
        vars,
        lambda ij, k, l: NotLiouvilleError(
            "connection coefficients are not a closed gradient family at "
            f"(i,j,k,l)=({ij // n + 1},{ij % n + 1},{k + 1},{l + 1})",
            indices=(ij // n + 1, ij % n + 1, k + 1, l + 1),
        ),
    )
    Phi = [
        [
            potentials[i * n + j]
            + _at_origin(B.g[i][j], vars, f"g[{i + 1}][{j + 1}]") * Fraction(1, 2)
            for j in range(n)
        ]
        for i in range(n)
    ]
    for i in range(n):
        for j in range(n):
            res = B.g[i][j] - (Phi[i][j] + Phi[j][i] - B.K * u[i] * u[j])
            if is_zero(res) is Zeroness.NONZERO:
                raise NotLiouvilleError(
                    "metric does not match the symmetrized Liouville form at "
                    f"(i,j)=({i + 1},{j + 1})",
                    indices=(i + 1, j + 1),
                )
    return tuple(tuple(row) for row in Phi)


def special_liouville(Phi: tuple, eta: ConstantBracket, vars: tuple) -> tuple:
    """The potentials H^j with eta_{ks} Phi^{sj} = dH^j/du^k and H(0) = 0,
    from the Liouville function ``liouville_function`` returns."""
    psi = [eta.lower(column) for column in zip(*Phi)]
    return _potentials(
        psi,
        vars,
        lambda j, k, l: NotSpecialError(
            "eta-lowered Liouville function is not a gradient at "
            f"(j,k,l)=({j + 1},{k + 1},{l + 1})",
            indices=(j + 1, k + 1, l + 1),
        ),
    )


# ---------------------------------------------------------------------------
# functional brackets of zeroth-order densities
# ---------------------------------------------------------------------------


def functional_bracket_density(B: HydroBracket, f: Expr, h: Expr) -> tuple:
    """The covector omega of the integrand sum_k omega_k(u) u^k_x of the
    functional bracket {int f, int h} for zeroth-order densities f(u), h(u),
    with the nonlocal tail resolved through the exact antiderivative
    (d/dx)^{-1}(u^j_x dh/du^j) = h(u) - h(0):
    omega_k = df/du^i M^i_k - K h(0) df/du^k with M = operator_matrix(B, h).
    The integrand is a total x-derivative exactly when omega is closed
    (``_nonclosed_at(omega, B.vars) is None``).  The additive constant
    ambiguity only contributes a multiple of (f)_x and cannot change that
    verdict."""
    n = B.n
    vars = B.vars
    if not (f.free_vars() | h.free_vars()) <= set(vars):
        raise ValueError("densities may depend on the field variables only")
    zero = Expr.const(0)
    df = grad(f, vars)
    M = operator_matrix(B, h)
    h0 = h.at_origin(vars)
    omega = [
        sum((df[i] * M[i][k] for i in range(n)), zero) - B.K * h0 * df[k]
        for k in range(n)
    ]
    return tuple(omega)
