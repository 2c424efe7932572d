"""Generation of the bi-Hamiltonian hierarchy of conservative flows.

A hierarchy level is a flow v^i_t = (F^i(v))_x carried redundantly in three
faces: flux potentials F, the scalar potential S with dS/dv^j = eta_{jl} F^l
and S(0) = 0, and the expanded coefficient matrix V^i_k = dF^i/dv^k.  The
cross-invariants are verified at construction, so every flow object is
self-checking.

:func:`recursion_matrix` is the single primitive for the canonical operator
P1 of the pair: V-hat = g1 Hess(S) + b1 grad(S) + K S Id, with the
antiderivative convention (d/dx)^{-1}(v^j_x dS/dv^j) = S(v), S(0) = 0.
Levels are produced by applying it to the previous level, and the
closed-form flows are checked against it.  Each application leaves one
constant covector free (the value of eta_{jl} F^l at the origin); it is
exposed as the explicit ``gauge`` argument rather than chosen silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bracket import (
    CanonicalPair,
    ConstantBracket,
    InconsistencyError,
    PoissonReport,
    check_canonical_equations,
    functional_bracket_density,
    is_total_x_derivative,
    _judge,
    _ray_potential,
    _rng,
)
from .expr import Expr, Zeroness, as_expr, is_zero
from .geometry import field_vars

__all__ = [
    "ConservativeFlow",
    "HamiltonianDensity",
    "ClosednessError",
    "FlowInvariantError",
    "NotPoissonError",
    "flow_vars",
    "translation_flow",
    "recursion_matrix",
    "apply_recursion",
    "flow_t1",
    "flow_t2",
    "hierarchy",
    "eta_gradient_gauge",
    "linear_density_flow",
    "bihamiltonian_check",
    "commute_check",
    "involution_check",
]


class FlowInvariantError(ValueError):
    """A flow's three faces (F, S, V) are mutually inconsistent."""


class ClosednessError(ValueError):
    """The recursion output is not a gradient: the flow left the
    conservative class (the pair is not Poisson or S is mis-normalized)."""


class NotPoissonError(ValueError):
    """The canonical pair fails its defining equations."""


def flow_vars(n: int) -> tuple:
    return field_vars(n, "v")


@dataclass(frozen=True)
class ConservativeFlow:
    """A conservative hydrodynamic flow v^i_t = (F^i(v))_x."""

    eta: ConstantBracket
    vars: tuple
    F: tuple
    S: Expr
    V: tuple
    level: int | None = None

    def __post_init__(self):
        n = self.eta.n
        F = tuple(as_expr(x) for x in self.F)
        V = tuple(tuple(as_expr(x) for x in row) for row in self.V)
        S = as_expr(self.S)
        if len(self.vars) != n or len(F) != n or len(V) != n:
            raise ValueError("flow dimensions do not match eta")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "S", S)
        down = self.eta.down
        vars = self.vars
        for i in range(n):
            for k in range(n):
                if is_zero(V[i][k] - F[i].diff(vars[k])) is Zeroness.NONZERO:
                    raise FlowInvariantError(
                        f"V[{i + 1}][{k + 1}] does not match dF^{i + 1}/dv^{k + 1}"
                    )
        for j in range(n):
            for k in range(j + 1, n):
                lhs = sum(
                    (Expr.const(down[j][l]) * V[l][k] for l in range(n)), Expr.const(0)
                )
                rhs = sum(
                    (Expr.const(down[k][l]) * V[l][j] for l in range(n)), Expr.const(0)
                )
                if is_zero(lhs - rhs) is Zeroness.NONZERO:
                    raise FlowInvariantError(
                        f"eta-lowered coefficient matrix is not symmetric at "
                        f"({j + 1},{k + 1}); no scalar potential exists"
                    )
        for j in range(n):
            xi = sum((Expr.const(down[j][l]) * F[l] for l in range(n)), Expr.const(0))
            if is_zero(S.diff(vars[j]) - xi) is Zeroness.NONZERO:
                raise FlowInvariantError(
                    f"dS/dv^{j + 1} does not match the eta-lowered flux"
                )
        at0 = {v: Fraction(0) for v in vars}
        if is_zero(S.substitute(at0)) is Zeroness.NONZERO:
            raise FlowInvariantError("S must vanish at the origin")

    @property
    def n(self) -> int:
        return self.eta.n


@dataclass(frozen=True)
class HamiltonianDensity:
    """Zeroth-order density together with the operator it belongs to."""

    density: Expr
    operator: str = "P2"  # "P1" or "P2"

    def __post_init__(self):
        if self.operator not in ("P1", "P2"):
            raise ValueError("operator must be 'P1' or 'P2'")
        object.__setattr__(self, "density", as_expr(self.density))


# ---------------------------------------------------------------------------
# canonical pair helpers (everything below works in the flow variables)
# ---------------------------------------------------------------------------


def _potentials_in_flow_vars(P: CanonicalPair):
    """The flow variables v1..vN, and the pair's H^i and K renamed to them."""
    vars = flow_vars(P.n)
    mapping = dict(zip(P.vars, vars))
    return vars, tuple(h.rename(mapping) for h in P.H), P.K.rename(mapping)


def eta_gradient_gauge(P: CanonicalPair) -> tuple:
    """The covector eta_{jl} h^l(0): the gauge that reproduces the closed-form
    first flow exactly when applied at the first recursion level."""
    h0 = P.h_origin()
    down = P.eta.down
    n = P.n
    return tuple(
        sum((Expr.const(down[j][l]) * h0[l] for l in range(n)), Expr.const(0))
        for j in range(n)
    )


def translation_flow(eta: ConstantBracket) -> ConservativeFlow:
    """Level 0: v^i_t = v^i_x, with S = (1/2) eta_{jl} v^j v^l."""
    n = eta.n
    vars = flow_vars(n)
    v = [Expr.var(x) for x in vars]
    F = tuple(v)
    S = sum(
        (
            Expr.const(eta.down[j][l]) * v[j] * v[l]
            for j in range(n)
            for l in range(n)
        ),
        Expr.const(0),
    ) * Fraction(1, 2)
    V = tuple(
        tuple(Expr.const(1 if i == k else 0) for k in range(n)) for i in range(n)
    )
    return ConservativeFlow(eta=eta, vars=vars, F=F, S=S, V=V, level=0)


def recursion_matrix(P: CanonicalPair, S: Expr, vars) -> list:
    """V-hat = g1 Hess(S) + b1 grad(S) + K S Id in the given flow variables."""
    n = P.n
    B = P._flow_bracket
    if tuple(vars) != flow_vars(n):
        raise ValueError("flows must use the canonical flow variables v1..vN")
    Sj = [S.diff(v) for v in vars]
    Sjk = [[Sj[j].diff(vars[k]) for k in range(n)] for j in range(n)]
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


def _integrate_flow(
    eta: ConstantBracket, vars, V, gauge, level: int | None = None
) -> ConservativeFlow:
    """The conservative flow with the closed coefficient matrix V: the flux
    potentials F^i are the ray integrals of the rows of V lifted by
    eta^{is} gauge_s, and S is the ray integral of eta_{jl} F^l."""
    n = eta.n
    zero = Expr.const(0)
    F = tuple(
        _ray_potential(V[i], vars)
        + sum((Expr.const(eta.up[i][s]) * gauge[s] for s in range(n)), zero)
        for i in range(n)
    )
    xi = [
        sum((Expr.const(eta.down[j][l]) * F[l] for l in range(n)), zero)
        for j in range(n)
    ]
    S = _ray_potential(xi, vars)
    return ConservativeFlow(
        eta=eta, vars=vars, F=F, S=S, V=tuple(tuple(r) for r in V), level=level
    )


def apply_recursion(
    P: CanonicalPair, flow: ConservativeFlow, gauge: Sequence | None = None
) -> ConservativeFlow:
    """One application of the recursion map of the canonical pair.

    ``gauge`` is a constant covector fixing eta_{jl} F-hat^l at the origin
    (default zero); the coefficient matrix of the output never depends on
    it, but the carried potentials do, and through them the next level.
    """
    n = P.n
    vars = flow.vars
    if P.eta.n != flow.n:
        raise ValueError("flow and pair dimensions differ")
    gauge = tuple(as_expr(x) for x in (gauge or [0] * n))
    if len(gauge) != n:
        raise ValueError("gauge covector has wrong length")
    V = recursion_matrix(P, flow.S, vars)
    for i in range(n):
        for k in range(n):
            for l in range(k + 1, n):
                res = V[i][k].diff(vars[l]) - V[i][l].diff(vars[k])
                if is_zero(res) is Zeroness.NONZERO:
                    raise ClosednessError(
                        f"coefficient row {i + 1} is not a gradient at "
                        f"({k + 1},{l + 1})"
                    )
    level = None if flow.level is None else flow.level + 1
    return _integrate_flow(P.eta, vars, V, gauge, level)


def flow_t1(P: CanonicalPair) -> ConservativeFlow:
    """The first hierarchy flow in closed form:
    F^i = h^i + eta^{is} (dh^j/dv^s) eta_{jl} v^l - (K/2) eta_{sk} v^i v^s v^k,
    with its expanded coefficient matrix and the quartic scalar potential."""
    n = P.n
    vars, h, K = _potentials_in_flow_vars(P)
    eta = P.eta
    up, down = eta.up, eta.down
    v = [Expr.var(x) for x in vars]
    zero = Expr.const(0)
    dh = [[h[j].diff(vars[s]) for s in range(n)] for j in range(n)]
    d2h = [[[dh[j][s].diff(vars[k]) for k in range(n)] for s in range(n)] for j in range(n)]
    eta_vv = sum(
        (Expr.const(down[s][l]) * v[s] * v[l] for s in range(n) for l in range(n)),
        zero,
    )
    half = Fraction(1, 2)
    F = tuple(
        h[i]
        + sum(
            (
                Expr.const(up[i][s]) * dh[j][s] * Expr.const(down[j][l]) * v[l]
                for s in range(n)
                for j in range(n)
                for l in range(n)
            ),
            zero,
        )
        - K * half * v[i] * sum(
            (
                Expr.const(down[s][k]) * v[s] * v[k]
                for s in range(n)
                for k in range(n)
            ),
            zero,
        )
        for i in range(n)
    )
    V = tuple(
        tuple(
            sum(
                (
                    Expr.const(up[i][s]) * dh[j][s] * Expr.const(down[j][k])
                    for s in range(n)
                    for j in range(n)
                ),
                zero,
            )
            + dh[i][k]
            + sum(
                (
                    Expr.const(up[i][s])
                    * Expr.const(down[j][l])
                    * d2h[j][s][k]
                    * v[l]
                    for s in range(n)
                    for j in range(n)
                    for l in range(n)
                ),
                zero,
            )
            - K
            * sum((Expr.const(down[s][k]) * v[i] * v[s] for s in range(n)), zero)
            - (K * half * eta_vv if i == k else zero)
            for k in range(n)
        )
        for i in range(n)
    )
    S = (
        sum(
            (
                Expr.const(down[j][k]) * h[k] * v[j]
                for j in range(n)
                for k in range(n)
            ),
            zero,
        )
        - K * Fraction(1, 8) * eta_vv * eta_vv
    )
    return ConservativeFlow(eta=eta, vars=vars, F=F, S=S, V=V, level=1)


def flow_t2(P: CanonicalPair) -> ConservativeFlow:
    """The second hierarchy flow: the recursion route applied to the first
    flow with the gradient gauge.  Before that, the paper's closed-form
    cofactors M (of g1) and xi (of b1) are checked against the Hessian and
    gradient of the first flow's S; a mismatch raises ``InconsistencyError``."""
    n = P.n
    vars, h, K = _potentials_in_flow_vars(P)
    down = P.eta.down
    v = [Expr.var(x) for x in vars]
    zero = Expr.const(0)
    half = Fraction(1, 2)
    dh = [[h[j].diff(vars[s]) for s in range(n)] for j in range(n)]
    d2h = [[[dh[j][s].diff(vars[k]) for k in range(n)] for s in range(n)] for j in range(n)]
    eta_vv = sum(
        (Expr.const(down[p][l]) * v[p] * v[l] for p in range(n) for l in range(n)),
        zero,
    )
    # bracketed cofactor of g1^{ij}: eta_{jl} dh^l/dv^k + eta_{rk} dh^r/dv^j
    #   + eta_{rq} v^q d2h^r/dv^j dv^k - K eta_{jl} eta_{pk} v^l v^p
    #   - (K/2) eta_{jk} eta_{pl} v^l v^p
    M = [
        [
            sum((Expr.const(down[j][l]) * dh[l][k] for l in range(n)), zero)
            + sum((Expr.const(down[r][k]) * dh[r][j] for r in range(n)), zero)
            + sum(
                (
                    Expr.const(down[r][q]) * v[q] * d2h[r][j][k]
                    for r in range(n)
                    for q in range(n)
                ),
                zero,
            )
            - K
            * sum(
                (
                    Expr.const(down[j][l] * down[p][k]) * v[l] * v[p]
                    for l in range(n)
                    for p in range(n)
                ),
                zero,
            )
            - K * half * Expr.const(down[j][k]) * eta_vv
            for k in range(n)
        ]
        for j in range(n)
    ]
    # bracketed cofactor of b1^{ij}_k: eta_{jl} h^l + eta_{rq} v^q dh^r/dv^j
    #   - (K/2) eta_{jl} eta_{pr} v^l v^p v^r
    xi = [
        sum((Expr.const(down[j][l]) * h[l] for l in range(n)), zero)
        + sum(
            (
                Expr.const(down[r][q]) * v[q] * dh[r][j]
                for r in range(n)
                for q in range(n)
            ),
            zero,
        )
        - K
        * half
        * sum(
            (
                Expr.const(down[j][l] * down[p][r]) * v[l] * v[p] * v[r]
                for l in range(n)
                for p in range(n)
                for r in range(n)
            ),
            zero,
        )
        for j in range(n)
    ]
    t1 = flow_t1(P)
    for j in range(n):
        S1j = t1.S.diff(vars[j])
        if is_zero(xi[j] - S1j) is Zeroness.NONZERO:
            raise InconsistencyError(
                f"closed-form xi[{j + 1}] disagrees with the gradient of the "
                f"first flow's S"
            )
        for k in range(n):
            if is_zero(M[j][k] - S1j.diff(vars[k])) is Zeroness.NONZERO:
                raise InconsistencyError(
                    f"closed-form M[{j + 1}][{k + 1}] disagrees with the Hessian "
                    f"of the first flow's S"
                )
    return apply_recursion(P, t1, gauge=eta_gradient_gauge(P))


def hierarchy(
    P: CanonicalPair, n_max: int, gauges: Sequence | None = None
) -> list:
    """Flows for levels 0..n_max by iterated recursion.

    ``gauges[i]`` is the gauge covector used when producing level i+1; the
    default is the gradient gauge at level 1 (reproducing the closed-form
    first flow exactly) and zero afterwards.  Negative levels would require
    inverting the nonlocal operator and are rejected.
    """
    if n_max < 0:
        raise ValueError("negative recursion powers are not supported")
    report = check_canonical_equations(P)
    if not report.passed:
        failing = ", ".join(c.name for c in report.failing())
        raise NotPoissonError(f"canonical pair fails {failing}")
    if gauges is None:
        gauges = [eta_gradient_gauge(P)] + [None] * max(0, n_max - 1)
    gauges = list(gauges) + [None] * max(0, n_max - len(gauges))
    flows = [translation_flow(P.eta)]
    for level in range(1, n_max + 1):
        try:
            flows.append(apply_recursion(P, flows[-1], gauge=gauges[level - 1]))
        except ClosednessError as exc:
            raise ClosednessError(f"at level {level}: {exc}") from exc
    return flows


def linear_density_flow(P: CanonicalPair, c: Sequence) -> ConservativeFlow:
    """The flow generated by the nonlocal operator of the pair from the
    linear density c_j v^j: coefficients b1^{ij}_k c_j + K (c_j v^j) delta^i_k.
    This is exactly the defect produced one level after choosing gauge zero
    instead of the covector c."""
    n = P.n
    vars = flow_vars(n)
    c = tuple(as_expr(x) for x in c)
    if len(c) != n:
        raise ValueError("covector length must match the pair")
    cv = sum((c[j] * Expr.var(vars[j]) for j in range(n)), Expr.const(0))
    return _integrate_flow(P.eta, vars, recursion_matrix(P, cv, vars), (0,) * n)


# ---------------------------------------------------------------------------
# verification operations
# ---------------------------------------------------------------------------


def bihamiltonian_check(
    P: CanonicalPair, flow: ConservativeFlow, rng=None, tol: float = 1e-10
) -> PoissonReport:
    """Verify both Hamiltonian representations of a first-level flow:

    * ``eq1``: the nonlocal operator applied to the quadratic-density
      gradient eta_{jl} v^l reproduces the flow, the nonlocal term resolving
      to K v^i_x (1/2) eta_{jl} v^j v^l;
    * ``eq2``: the constant operator applied to grad S reproduces it.
    """
    rng = _rng(rng)
    n = P.n
    vars = flow.vars
    eta = P.eta
    zero = Expr.const(0)
    V_from_p1 = recursion_matrix(P, translation_flow(eta).S, vars)

    def eq1():
        for i in range(n):
            for k in range(n):
                yield (i + 1, k + 1), V_from_p1[i][k] - flow.V[i][k]

    Sj = [flow.S.diff(x) for x in vars]

    def eq2():
        for i in range(n):
            for k in range(n):
                res = sum(
                    (Expr.const(eta.up[i][j]) * Sj[j].diff(vars[k]) for j in range(n)),
                    zero,
                )
                yield (i + 1, k + 1), res - flow.V[i][k]

    return PoissonReport(
        conditions=[_judge("eq1", eq1(), rng, tol), _judge("eq2", eq2(), rng, tol)]
    )


def commute_check(
    flowA: ConservativeFlow, flowB: ConservativeFlow, rng=None, tol: float = 1e-10
) -> PoissonReport:
    """Commutator of the evolutionary fields A^i_k v^k_x and B^i_k v^k_x.

    Vanishing is equivalent to (i) the matrix commutator AB - BA = 0 (the
    v_xx coefficient) and (ii) the symmetrized v^k_x v^l_x coefficient
    dB^i_k/dv^m A^m_l + B^i_m dA^m_l/dv^k - (A <-> B) vanishing.
    """
    if flowA.vars != flowB.vars:
        raise ValueError("flows must share variables")
    rng = _rng(rng)
    n = flowA.n
    vars = flowA.vars
    A, B = flowA.V, flowB.V
    zero = Expr.const(0)

    def vxx():
        for i in range(n):
            for l in range(n):
                res = sum(
                    (A[i][s] * B[s][l] - B[i][s] * A[s][l] for s in range(n)), zero
                )
                yield (i + 1, l + 1), res

    def coeff(i, k, l):
        return sum(
            (
                B[i][k].diff(vars[m]) * A[m][l]
                + B[i][m] * A[m][l].diff(vars[k])
                - A[i][k].diff(vars[m]) * B[m][l]
                - A[i][m] * B[m][l].diff(vars[k])
                for m in range(n)
            ),
            zero,
        )

    def vxvx():
        for i in range(n):
            for k in range(n):
                for l in range(k, n):
                    yield (i + 1, k + 1, l + 1), coeff(i, k, l) + coeff(i, l, k)

    return PoissonReport(
        conditions=[_judge("vxx", vxx(), rng, tol), _judge("vxvx", vxvx(), rng, tol)]
    )


def involution_check(P: CanonicalPair, d1, d2, operator: str = "both") -> bool:
    """True when the functional bracket of the two zeroth-order densities is
    a total x-derivative for the selected operator(s) of the pair."""
    vars = flow_vars(P.n)
    dens1 = (d1.density if isinstance(d1, HamiltonianDensity) else as_expr(d1))
    dens2 = (d2.density if isinstance(d2, HamiltonianDensity) else as_expr(d2))
    brackets = []
    if operator in ("P1", "both"):
        brackets.append(P._flow_bracket)
    if operator in ("P2", "both"):
        brackets.append(P.eta.as_hydro(vars))
    if not brackets:
        raise ValueError("operator must be 'P1', 'P2' or 'both'")
    for B in brackets:
        integrand = functional_bracket_density(B, dens1, dens2)
        if not is_total_x_derivative(integrand):
            return False
    return True
