"""Generation of the bi-Hamiltonian hierarchy of conservative flows.

A hierarchy level is a flow v^i_t = (F^i(v))_x, and a flow is its
coefficient matrix V^i_k = dF^i/dv^k.  The flux potentials F and the scalar
potential S (dS/dv^j = eta_{jl} F^l, S(0) = 0) are ray potentials derived
from V when the flow is built: F^i is the ray integral of row i of V plus
the constant eta^{is} gauge_s, and S is the ray integral of eta_{jl} F^l.
The constructor checks the two conditions under which these potentials
exist, that every row of V is closed and that eta-lowered V is symmetric;
the ray integral guarantees the rest.

:func:`bracket.operator_matrix` is the single operator primitive: for any
bracket (g, b, K) it forms g Hess(S) + b grad(S) + K S Id, with the
antiderivative convention (d/dx)^{-1}(v^j_x dS/dv^j) = S(v), S(0) = 0.
:func:`recursion_matrix` is it for the canonical operator P1 of the pair;
``bihamiltonian_check`` applies P1 and eta d/dx at one link of the chain,
``involution_check`` integrates against both, and ``verify_hierarchy``
checks every link and derives every pair's verdict from the chain.  Levels
are produced by applying the recursion to the previous level, and the
closed-form flows are checked against it.
Each application leaves one constant covector free (the value of
eta_{jl} F^l at the origin); it is exposed as the explicit ``gauge``
argument rather than chosen silently.
"""

from __future__ import annotations

import itertools
import random
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
    operator_matrix,
    _judge,
    _nonclosed_at,
    _potential_derivatives,
    _ray_potential,
)
from .expr import Expr, Zeroness, as_expr, is_zero
from .geometry import _dot, field_vars

__all__ = [
    "ConservativeFlow",
    "ClosednessError",
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
    "verify_hierarchy",
]


class ClosednessError(ValueError):
    """A coefficient matrix V that is not a flow: a row of V is not closed,
    so the flux potential F does not exist, or eta-lowered V is not
    symmetric, so the scalar potential S does not exist.  On recursion
    output it means the pair is not Poisson or S is mis-normalized."""


class NotPoissonError(ValueError):
    """The canonical pair fails its defining equations."""


def flow_vars(n: int) -> tuple:
    return field_vars(n, "v")


class ConservativeFlow:
    """A conservative hydrodynamic flow v^i_t = (F^i(v))_x with coefficient
    matrix V over ``flow_vars(eta.n)``.

    ``gauge`` is the constant covector eta_{jl} F^l(0) (default zero); it
    shifts F and, through it, S, but never V.
    """

    def __init__(self, eta: ConstantBracket, V, gauge: Sequence | None = None, level=None):
        n = eta.n
        vars = flow_vars(n)
        V = tuple(tuple(as_expr(x) for x in row) for row in V)
        if len(V) != n or any(len(row) != n for row in V):
            raise ValueError("flow dimensions do not match eta")
        gauge = tuple(as_expr(x) for x in (gauge or [0] * n))
        if len(gauge) != n:
            raise ValueError("gauge covector has wrong length")
        for i in range(n):
            bad = _nonclosed_at(V[i], vars)
            if bad is not None:
                k, l = bad
                raise ClosednessError(
                    f"coefficient row {i + 1} is not a gradient at ({k + 1},{l + 1})"
                )
        F = tuple(_ray_potential(row, vars) + c for row, c in zip(V, eta.lift(gauge)))
        # d_k (eta_{jl} F^l) = eta_{jl} V^l_k: closed iff eta-lowered V is symmetric
        xi = eta.lower(F)
        bad = _nonclosed_at(xi, vars)
        if bad is not None:
            j, k = bad
            raise ClosednessError(
                f"eta-lowered coefficient matrix is not symmetric at "
                f"({j + 1},{k + 1}); no scalar potential exists"
            )
        S = _ray_potential(xi, vars)
        self.eta, self.vars, self.F, self.S, self.V, self.level = eta, vars, F, S, V, level

    @property
    def n(self) -> int:
        return self.eta.n


# ---------------------------------------------------------------------------
# canonical pair helpers (everything below works in the flow variables)
# ---------------------------------------------------------------------------


def _closed_form_data(P: CanonicalPair):
    """The pieces of the paper's closed-form flows, in the flow variables:
    (vars, h, K, dh, d2h, v, eta v, S0) with h^i and K renamed from the pair,
    dh, d2h their first and second derivatives, eta v the covector
    eta_{jl} v^l and S0 = (1/2) eta_{jl} v^j v^l."""
    vars = flow_vars(P.n)
    mapping = dict(zip(P.vars, vars))
    h = tuple(x.rename(mapping) for x in P.H)
    dh, d2h = _potential_derivatives(h, vars)
    v = [Expr.var(x) for x in vars]
    ev = P.eta.lower(v)
    S0 = _dot(v, ev) * Fraction(1, 2)
    return vars, h, P.K.rename(mapping), dh, d2h, v, ev, S0


def eta_gradient_gauge(P: CanonicalPair) -> tuple:
    """The covector eta_{jl} h^l(0): the gauge that reproduces the closed-form
    first flow exactly when applied at the first recursion level."""
    return P.eta.lower(P.h_origin())


def translation_flow(eta: ConstantBracket) -> ConservativeFlow:
    """Level 0: v^i_t = v^i_x, with S = (1/2) eta_{jl} v^j v^l."""
    n = eta.n
    identity = [[int(i == k) for k in range(n)] for i in range(n)]
    return ConservativeFlow(eta, identity, level=0)


def recursion_matrix(P: CanonicalPair, S: Expr) -> list:
    """V-hat = g1 Hess(S) + b1 grad(S) + K S Id in the flow variables: the
    operator matrix of the canonical bracket P1."""
    return operator_matrix(P._flow_bracket, S)


def apply_recursion(
    P: CanonicalPair, flow: ConservativeFlow, gauge: Sequence | None = None
) -> ConservativeFlow:
    """One application of the recursion map of the canonical pair.

    ``gauge`` is a constant covector fixing eta_{jl} F-hat^l at the origin
    (default zero); the coefficient matrix of the output never depends on
    it, but the carried potentials do, and through them the next level.
    """
    if P.eta.n != flow.n:
        raise ValueError("flow and pair dimensions differ")
    level = None if flow.level is None else flow.level + 1
    return ConservativeFlow(P.eta, recursion_matrix(P, flow.S), gauge, level)


def flow_t1(P: CanonicalPair) -> ConservativeFlow:
    """The first hierarchy flow: the recursion route applied to the
    translation flow with the gradient gauge.  It is checked against the
    paper's closed form
    F^i = h^i + eta^{is} (dh^j/dv^s) eta_{jl} v^l - K v^i S0,
    S = eta_{jk} h^k v^j - (K/2) S0^2,  S0 = (1/2) eta_{jl} v^j v^l;
    a mismatch raises ``InconsistencyError``."""
    n = P.n
    vars, h, K, dh, _, v, ev, S0 = _closed_form_data(P)
    eta = P.eta
    lifted = eta.lift([_dot(ev, [dh[j][s] for j in range(n)]) for s in range(n)])
    F = [h[i] + lifted[i] - K * v[i] * S0 for i in range(n)]
    S = _dot(v, eta.lower(h)) - K * Fraction(1, 2) * S0 * S0
    rec = apply_recursion(P, translation_flow(eta), gauge=eta_gradient_gauge(P))
    for i in range(n):
        if is_zero(F[i] - rec.F[i]) is Zeroness.NONZERO:
            raise InconsistencyError(
                f"closed-form F[{i + 1}] disagrees with the recursion route"
            )
    if is_zero(S - rec.S) is Zeroness.NONZERO:
        raise InconsistencyError("closed-form S disagrees with the recursion route")
    return rec


def flow_t2(P: CanonicalPair) -> ConservativeFlow:
    """The second hierarchy flow: the recursion route applied to the first
    flow with the gradient gauge.  Before that, the paper's closed-form
    cofactors M (of g1) and xi (of b1) are checked against the Hessian and
    gradient of the first flow's S; a mismatch raises ``InconsistencyError``."""
    n = P.n
    vars, h, K, dh, d2h, v, ev, S0 = _closed_form_data(P)
    down = P.eta.down
    # eta_{jl} dh^l/dv^k, by [k][j]
    ldh = [P.eta.lower([dh[l][k] for l in range(n)]) for k in range(n)]
    # bracketed cofactor of g1^{ij}: eta_{jl} dh^l/dv^k + eta_{rk} dh^r/dv^j
    #   + eta_{rq} v^q d2h^r/dv^j dv^k - K eta_{jl} eta_{pk} v^l v^p
    #   - (K/2) eta_{jk} eta_{pl} v^l v^p
    M = [
        [
            ldh[k][j]
            + ldh[j][k]
            + _dot(ev, [d2h[r][j][k] for r in range(n)])
            - K * ev[j] * ev[k]
            - K * Expr.const(down[j][k]) * S0
            for k in range(n)
        ]
        for j in range(n)
    ]
    # bracketed cofactor of b1^{ij}_k: eta_{jl} h^l + eta_{rq} v^q dh^r/dv^j
    #   - (K/2) eta_{jl} eta_{pr} v^l v^p v^r
    lh = P.eta.lower(h)
    xi = [
        lh[j] + _dot(ev, [dh[r][j] for r in range(n)]) - K * ev[j] * S0
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
    c = tuple(as_expr(x) for x in c)
    if len(c) != P.n:
        raise ValueError("covector length must match the pair")
    cv = _dot(c, [Expr.var(x) for x in flow_vars(P.n)])
    return ConservativeFlow(P.eta, recursion_matrix(P, cv))


# ---------------------------------------------------------------------------
# verification operations
# ---------------------------------------------------------------------------


def bihamiltonian_check(
    P: CanonicalPair, flow: ConservativeFlow, previous: ConservativeFlow | None = None
) -> PoissonReport:
    """Verify one link P1 grad S_{b-1} = P2 grad S_b of the Lenard chain,
    the two Hamiltonian representations of the flow of level b:

    * ``eq1``: the nonlocal operator applied to grad S of the ``previous``
      level (default: the translation flow, S = (1/2) eta_{jl} v^j v^l)
      reproduces the flow, the nonlocal term resolving to K v^i_x S;
    * ``eq2``: the constant operator applied to grad S reproduces it.
    """
    rng = random.Random(0)
    n = P.n
    previous = translation_flow(P.eta) if previous is None else previous

    def residuals(M):
        for i in range(n):
            for k in range(n):
                yield (i + 1, k + 1), M[i][k] - flow.V[i][k]

    p1 = recursion_matrix(P, previous.S)
    p2 = operator_matrix(P.eta.as_hydro(flow.vars), flow.S)
    return PoissonReport([_judge("eq1", residuals(p1), rng), _judge("eq2", residuals(p2), rng)])


def commute_check(flowA: ConservativeFlow, flowB: ConservativeFlow) -> PoissonReport:
    """Commutator of the evolutionary fields A^i_k v^k_x and B^i_k v^k_x.

    Both flows are conservative (A = dF_A, B = dF_B), so the commutator is
    (C v_x)_x with C = AB - BA.  Vanishing is equivalent to (i) C = 0 (the
    v_xx coefficient) and (ii) the symmetrized v^k_x v^l_x coefficient
    -(dC^i_l/dv^k + dC^i_k/dv^l) vanishing.
    """
    if flowA.vars != flowB.vars:
        raise ValueError("flows must share variables")
    rng = random.Random(0)
    n = flowA.n
    vars = flowA.vars
    A, B = flowA.V, flowB.V
    zero = Expr.const(0)
    C = [
        [
            sum((A[i][s] * B[s][l] - B[i][s] * A[s][l] for s in range(n)), zero)
            for l in range(n)
        ]
        for i in range(n)
    ]

    def vxx():
        for i in range(n):
            for l in range(n):
                yield (i + 1, l + 1), C[i][l]

    def vxvx():
        for i in range(n):
            for k in range(n):
                for l in range(k, n):
                    res = C[i][l].diff(vars[k]) + C[i][k].diff(vars[l])
                    yield (i + 1, k + 1, l + 1), -res

    return PoissonReport(
        conditions=[_judge("vxx", vxx(), rng), _judge("vxvx", vxvx(), rng)]
    )


def involution_check(P: CanonicalPair, d1, d2) -> bool:
    """True when the functional bracket of the two zeroth-order densities is
    a total x-derivative for both operators of the pair."""
    d1, d2 = as_expr(d1), as_expr(d2)
    return all(
        is_total_x_derivative(functional_bracket_density(B, d1, d2))
        for B in (P._flow_bracket, P.eta.as_hydro(flow_vars(P.n)))
    )


def verify_hierarchy(P: CanonicalPair, flows: Sequence) -> list:
    """(commute, involution) verdicts of every pair a < b of the flows 0..L
    that ``hierarchy(P, L)`` returned, in ``itertools.combinations`` order;
    involution is under both operators, as in ``involution_check``.

    When ``bihamiltonian_check`` passes at every link (level b against
    level b-1), every verdict is (True, True) by Lenard's recursion argument
    (Magri 1978; Olver, "Applications of Lie Groups to Differential
    Equations", ch. 7).  Write I_1(a, b), I_2(a, b) for the P1 and P2
    brackets of the integrals of S_a and S_b:

    * the chain P1 grad S_b = P2 grad S_{b+1} gives I_1(a, b) = I_2(a, b+1)
      (S_b(0) = 0 removes the tail term);
    * both brackets are skew (P1 by construction: g1 is symmetric and
      dg1 = b1 + b1^T), so I_2(a, b) = I_1(a, b-1) = -I_1(b-1, a) =
      -I_2(b-1, a+1) = I_2(a+1, b-1), every index in 0..L; this ends at
      I_2(k, k) = 0 or I_2(k, k+1) = I_2(k+1, k) = -I_2(k, k+1), so every
      I_2 vanishes, and so does every I_1 (I_1(a, L) = -I_2(L, a+1));
    * every flow is the P2-Hamiltonian field of the integral of its S (eq2;
      at level 0 by construction) and [X_f, X_g] = X_{f,g}, so they commute.

    A failing link means flows that are not one pair's chain: then every
    pair is judged by ``commute_check`` and ``involution_check``."""
    if all(bihamiltonian_check(P, fl, previous=prev).passed for prev, fl in zip(flows, flows[1:])):
        return [(True, True)] * (len(flows) * (len(flows) - 1) // 2)
    return [
        (commute_check(fa, fb).passed, involution_check(P, fa.S, fb.S))
        for fa, fb in itertools.combinations(flows, 2)
    ]
