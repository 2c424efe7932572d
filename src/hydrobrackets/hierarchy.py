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
:func:`recursion_matrix` is it for the canonical operator P1 of the pair.
Levels are produced by applying the recursion to the previous level, so
consecutive levels form a Lenard chain by construction, and every pair of
levels commutes and is in involution (the proof is in :func:`hierarchy`).
``commute_check`` and ``involution_check`` decide the same two properties
directly, for any two flows.  Each application of the recursion leaves one
constant covector free (the value of eta_{jl} F^l at the origin); it is
exposed as the explicit ``gauge`` argument rather than chosen silently.
"""

from __future__ import annotations

from typing import Sequence

from .bracket import (
    CanonicalPair,
    ConstantBracket,
    PoissonReport,
    check_canonical_equations,
    functional_bracket_density,
    operator_matrix,
    _at_origin,
    _nonclosed_at,
    _potentials,
    _report,
)
from .expr import Expr, Zeroness, as_expr, grad

__all__ = [
    "ConservativeFlow",
    "ClosednessError",
    "NotPoissonError",
    "translation_flow",
    "recursion_matrix",
    "apply_recursion",
    "hierarchy",
    "eta_gradient_gauge",
    "commute_check",
    "involution_check",
]


class ClosednessError(ValueError):
    """A coefficient matrix V that is not a flow: a row of V is not closed,
    so the flux potential F does not exist, or eta-lowered V is not
    symmetric, so the scalar potential S does not exist.  On recursion
    output it means the pair is not Poisson or S is mis-normalized."""


class NotPoissonError(ValueError):
    """The canonical pair fails its defining equations."""


class ConservativeFlow:
    """A conservative hydrodynamic flow v^i_t = (F^i(v))_x with coefficient
    matrix V over the field variables ``vars``.

    ``gauge`` is the constant covector eta_{jl} F^l(0) (default zero); it
    shifts F and, through it, S, but never V.
    """

    def __init__(self, eta: ConstantBracket, V, vars, gauge: Sequence | None = None):
        n = eta.n
        vars = tuple(vars)
        V = tuple(tuple(as_expr(x) for x in row) for row in V)
        if len(vars) != n or len(V) != n or any(len(row) != n for row in V):
            raise ValueError("flow dimensions do not match eta")
        gauge = tuple(as_expr(x) for x in (gauge or [0] * n))
        if len(gauge) != n:
            raise ValueError("gauge covector has wrong length")
        F = _potentials(
            V,
            vars,
            lambda i, k, l: ClosednessError(
                f"coefficient row {i + 1} is not a gradient at ({k + 1},{l + 1})"
            ),
        )
        F = tuple(f + c for f, c in zip(F, eta.lift(gauge)))
        # d_k (eta_{jl} F^l) = eta_{jl} V^l_k: closed iff eta-lowered V is symmetric
        (S,) = _potentials(
            [eta.lower(F)],
            vars,
            lambda _, j, k: ClosednessError(
                f"eta-lowered coefficient matrix is not symmetric at "
                f"({j + 1},{k + 1}); no scalar potential exists"
            ),
        )
        self.eta, self.vars, self.F, self.S, self.V = eta, vars, F, S, V

    @property
    def n(self) -> int:
        return self.eta.n


# ---------------------------------------------------------------------------
# canonical pair helpers (a pair's flows live in the pair's variables)
# ---------------------------------------------------------------------------


def eta_gradient_gauge(P: CanonicalPair) -> tuple:
    """The covector eta_{jl} h^l(0): the gauge that reproduces the closed-form
    first flow exactly when applied at the first recursion level."""
    return P.eta.lower([_at_origin(h, P.vars, f"H[{i + 1}]") for i, h in enumerate(P.H)])


def translation_flow(eta: ConstantBracket, vars: Sequence[str]) -> ConservativeFlow:
    """Level 0: v^i_t = v^i_x, with S = (1/2) eta_{jl} v^j v^l."""
    n = eta.n
    identity = [[int(i == k) for k in range(n)] for i in range(n)]
    return ConservativeFlow(eta, identity, vars)


def recursion_matrix(P: CanonicalPair, S: Expr) -> list:
    """V-hat = g1 Hess(S) + b1 grad(S) + K S Id in the pair's variables: the
    operator matrix of the canonical bracket P1."""
    return operator_matrix(P._bracket, S)


def apply_recursion(
    P: CanonicalPair, flow: ConservativeFlow, gauge: Sequence | None = None
) -> ConservativeFlow:
    """One application of the recursion map of the canonical pair.

    ``gauge`` is a constant covector fixing eta_{jl} F-hat^l at the origin
    (default zero); the coefficient matrix of the output never depends on
    it, but the carried potentials do, and through them the next level.
    """
    if flow.vars != tuple(P.vars):
        raise ValueError("flow and pair variables differ")
    return ConservativeFlow(P.eta, recursion_matrix(P, flow.S), flow.vars, gauge)


def hierarchy(P: CanonicalPair, n_max: int, zero_gauge: bool = False) -> list:
    """Flows for levels 0..n_max by iterated recursion.

    Level 1 takes :func:`eta_gradient_gauge` (reproducing the closed-form
    first flow exactly) unless ``zero_gauge`` is set, and every other level
    takes the zero gauge.  Negative levels would require inverting the
    nonlocal operator and are rejected.

    Every pair of the returned levels commutes, and is in involution under
    both operators of the pair, by Lenard's recursion argument (Magri 1978;
    Olver, "Applications of Lie Groups to Differential Equations", ch. 7).
    Its premises are checked here, and each failure raises:

    * P1 and P2 = eta d/dx are a Poisson pair: the ass1/ass2 gate below
      (``NotPoissonError``);
    * every level is P2-Hamiltonian, V_b = P2 grad S_b: ``ConservativeFlow``
      derives F and S with V = dF and dS = eta-lowered F, and its two
      closedness checks raise ``ClosednessError`` when they do not exist;
    * consecutive levels form the chain P1 grad S_{b-1} = P2 grad S_b:
      ``apply_recursion`` builds V_b as ``recursion_matrix(P, S_{b-1})``,
      whatever the gauge.

    Write I_1(a, b), I_2(a, b) for the P1 and P2 brackets of the integrals
    of S_a and S_b, every index in 0..n_max:

    * the chain gives I_1(a, b) = I_2(a, b+1) (S_b(0) = 0 removes the tail
      term);
    * both brackets are skew (P1 by construction: g1 is symmetric and
      dg1 = b1 + b1^T), so I_2(a, b) = I_1(a, b-1) = -I_1(b-1, a) =
      -I_2(b-1, a+1) = I_2(a+1, b-1); this ends at I_2(k, k) = 0 or
      I_2(k, k+1) = I_2(k+1, k) = -I_2(k, k+1), so every I_2 vanishes, and
      so does every I_1 (I_1(a, n_max) = -I_2(n_max, a+1));
    * every flow is the P2-Hamiltonian field of the integral of its S, and
      [X_f, X_g] = X_{f,g}, so the flows commute.
    """
    if n_max < 0:
        raise ValueError("negative recursion powers are not supported")
    report = check_canonical_equations(P)
    if not report.passed:
        failing = ", ".join(c.name for c in report.conditions if c.status is Zeroness.NONZERO)
        raise NotPoissonError(f"canonical pair fails {failing}")
    gauge = None if zero_gauge else eta_gradient_gauge(P)
    flows = [translation_flow(P.eta, P.vars)]
    for level in range(1, n_max + 1):
        try:
            flows.append(apply_recursion(P, flows[-1], gauge=gauge if level == 1 else None))
        except ClosednessError as exc:
            raise ClosednessError(f"at level {level}: {exc}") from exc
    return flows


# ---------------------------------------------------------------------------
# verification operations
# ---------------------------------------------------------------------------


def commute_check(flowA: ConservativeFlow, flowB: ConservativeFlow) -> PoissonReport:
    """Commutator of the evolutionary fields A^i_k v^k_x and B^i_k v^k_x.

    Both flows are conservative (A = dF_A, B = dF_B), so the commutator is
    (C v_x)_x with C = AB - BA.  Vanishing is equivalent to (i) C = 0 (the
    v_xx coefficient) and (ii) the symmetrized v^k_x v^l_x coefficient
    -(dC^i_l/dv^k + dC^i_k/dv^l) vanishing.
    """
    if flowA.vars != flowB.vars:
        raise ValueError("flows must share variables")
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
        dC = grad(C, vars)
        for i in range(n):
            for k in range(n):
                for l in range(k, n):
                    yield (i + 1, k + 1, l + 1), -(dC[i][l][k] + dC[i][k][l])

    return _report([("vxx", vxx()), ("vxvx", vxvx())])


def involution_check(P: CanonicalPair, d1, d2) -> bool:
    """True when the functional bracket of the two zeroth-order densities is
    a total x-derivative for both operators of the pair."""
    d1, d2 = as_expr(d1), as_expr(d2)
    return all(
        _nonclosed_at(functional_bracket_density(B, d1, d2), P.vars) is None
        for B in (P._bracket, P.eta.as_hydro(P.vars))
    )
