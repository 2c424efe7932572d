"""Test oracles: exact and numeric routes that no command runs, kept to
check the ones that do.

* the exact determinant of an expression matrix, by the elimination
  that ``geometry.matrix_inverse`` runs;
* the curvature side of a metric: the Levi-Civita symbols Gamma, the
  curvature tensor R and the constant-curvature residuals;
* the paper's closed-form first and second flows of a canonical pair, and
  the flow of a linear density, against the recursion of
  :mod:`hydrobrackets.hierarchy`;
* one link of the Lenard chain, both Hamiltonian representations of a
  flow, which ``hierarchy()`` output satisfies by construction;
* the nonlocal operator P1 of a pair applied numerically on a grid, with
  the mean-zero periodic antiderivative;
* the parser's character-by-character scanner, against which the token
  pattern of ``expr._Tokenizer`` is compared;
* the Nijenhuis torsion of the affinor of two metrics, a necessary
  condition for their compatibility that no residual family of
  ``check-compat`` or ``check-pencil`` computes, and the involution of two
  densities under a bracket;
* a bracket carried through a polynomial change of coordinates, computed
  with sympy, under which every verdict must hold as it did.

Index conventions of the curvature side:

* ``Gamma[i][j][k]`` holds the Levi-Civita symbols Gamma^i_{jk}, derived
  from the contravariant connection b = ``geometry.christoffel`` as
  Gamma^j_{sk} = -g_{si} b^{ij}_k;
* ``R[i][j][k][l]`` holds the curvature tensor
  R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
            + Gamma^i_{ks} Gamma^s_{lj} - Gamma^i_{ls} Gamma^s_{kj}.

With these conventions a metric has constant curvature ``K`` exactly when
R^i_{jkl} = K (delta^i_k g_{jl} - delta^i_l g_{jk}); the sign was pinned
once against the closed-form constant-curvature family built by
``geometry.canonical_metric`` and is locked in by the test suite.

The numeric inverse derivative (d/dx)^{-1} is the unique mean-zero
periodic antiderivative (zero Fourier mode set to zero).  It therefore
differs from the symbolic antiderivative convention S(v), S(0)=0, by the
spatial mean of S; numeric/symbolic comparisons apply that constant
correction explicitly.
"""

from __future__ import annotations

import importlib
import sys
from fractions import Fraction
from typing import Sequence

import numpy as np

from hydrobrackets.bracket import (
    CanonicalPair,
    HydroBracket,
    PoissonReport,
    _nonclosed_at,
    _report,
    functional_bracket_density,
    operator_matrix,
)
from hydrobrackets.expr import Expr, ParseError, Zeroness, as_expr, is_zero, parse
from hydrobrackets.geometry import _dot, _eliminate, christoffel, matrix_inverse
from hydrobrackets.hierarchy import (
    ConservativeFlow,
    apply_recursion,
    recursion_matrix,
    translation_flow,
)
from hydrobrackets.numsim import Grid, MonomialTable, SimulationError, spectral_dx

# the module itself: the package exports the function ``hierarchy`` under
# the module's name, and the gauge is read from the module at call time
_hierarchy = importlib.import_module("hydrobrackets.hierarchy")


# ---------------------------------------------------------------------------
# determinant
# ---------------------------------------------------------------------------


def det(entries) -> Expr:
    """Exact determinant, the last pivot of ``geometry._eliminate`` times
    the sign of its row swaps; 0 for an identically singular matrix."""
    n = len(entries)
    done = _eliminate([[as_expr(x) for x in row] for row in entries], n)
    if done is None:
        return Expr.const(0)
    d, sign = done
    return d if sign > 0 else -d


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def gamma(down, b) -> tuple:
    """Levi-Civita symbols Gamma[j][s][k] = Gamma^j_{sk} = -g_{si} b^{ij}_k
    from g_{ij} = ``down`` and the connection b = christoffel(vars, up, down)."""
    n = len(b)
    return tuple(
        tuple(
            tuple(-_dot(down[s], [b[i][j][k] for i in range(n)]) for k in range(n))
            for s in range(n)
        )
        for j in range(n)
    )


def riemann(vars, up, down=None) -> tuple:
    """Curvature tensor R[i][j][k][l] = R^i_{jkl} of the metric g^{ij} = ``up``
    over ``vars``, with g_{ij} = ``down`` (the exact inverse when it is not
    given)."""
    n, down = len(vars), matrix_inverse(up) if down is None else down
    gam = gamma(down, christoffel(vars, up, down))
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


def constant_curvature_residual(vars, up, K, down=None) -> list:
    """Residuals R^i_{jkl} - K (delta^i_k g_{jl} - delta^i_l g_{jk}) of the
    metric of :func:`riemann`; all zero exactly when it has constant
    curvature K."""
    K = as_expr(K)
    n, lo = len(vars), matrix_inverse(up) if down is None else down
    R = riemann(vars, up, lo)
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


# ---------------------------------------------------------------------------
# compatibility
# ---------------------------------------------------------------------------


def nijenhuis_torsion(g1, g2, vars) -> dict:
    """The Nijenhuis torsion of the affinor L^i_j = g1^{is} (g2^{-1})_{sj} of
    two contravariant metrics over ``vars``, as {(k, i, j): N^k_{ij}} for
    i < j (1-based), with
    N^k_{ij} = L^s_i d_s L^k_j - L^s_j d_s L^k_i - L^k_s (d_i L^s_j - d_j L^s_i).
    Compatible metrics with g2 nondegenerate have zero torsion (Mokhov,
    "Compatible and almost compatible pseudo-Riemannian metrics", 2001);
    the converse needs more, so this is a necessary condition only.  An
    identically degenerate g2 raises DegenerateMetricError."""
    n = len(vars)
    inv = matrix_inverse(g2)
    L = [[_dot(g1[i], [inv[s][j] for s in range(n)]) for j in range(n)] for i in range(n)]
    dL = [[[L[k][j].diff(v) for v in vars] for j in range(n)] for k in range(n)]  # d_s L^k_j
    return {
        (k + 1, i + 1, j + 1): sum(
            (
                L[s][i] * dL[k][j][s]
                - L[s][j] * dL[k][i][s]
                - L[k][s] * (dL[s][j][i] - dL[s][i][j])
                for s in range(n)
            ),
            Expr.const(0),
        )
        for k in range(n)
        for i in range(n)
        for j in range(i + 1, n)
    }


def in_involution(B, f, h) -> bool:
    """True when the functional bracket {int f, int h} of B vanishes: the
    integrand of ``bracket.functional_bracket_density`` is a total
    x-derivative, which it is exactly when its covector is closed."""
    return _nonclosed_at(functional_bracket_density(B, f, h), B.vars) is None


def pull_back(B, w, u_of_w) -> HydroBracket:
    """B written in the coordinates w^i = w[i](u) of a polynomial change of
    coordinates with polynomial inverse u^a = u_of_w[a](w); both are strings
    over ``B.vars``, which name the new coordinates as well.  With
    J^i_a = dw^i/du^a the operator goes to J P J^T:
    g'^{ij} = J^i_a g^{ab} J^j_b,
    b'^{ij}_k = (J^i_a g^{ab} d_c J^j_b + J^i_a b^{ab}_c J^j_b) (J^{-1})^c_k,
    and K is unchanged, since the tail goes to K w^i_x D^{-1} w^j_x.  Each
    entry is formed with sympy and brought back through ``parse``."""
    import sympy

    n, vars = B.n, B.vars
    names = {v: sympy.Symbol(v) for v in vars}
    u = [names[v] for v in vars]

    def to_sympy(e):
        return sympy.sympify(str(e).replace("^", "**"), locals=names)

    J = sympy.Matrix(n, n, lambda i, a: sympy.diff(to_sympy(w[i]), u[a]))
    Jinv = J.inv()
    g = sympy.Matrix(n, n, lambda a, b: to_sympy(B.g[a][b]))
    b = [[[to_sympy(B.b[a][c][k]) for k in range(n)] for c in range(n)] for a in range(n)]
    dJ = [J.diff(x) for x in u]  # dJ[c][j, b] = d_c J^j_b
    # X[c][i, j] = J^i_a g^{ab} d_c J^j_b + J^i_a b^{ab}_c J^j_b
    X = [J * g * dJ[c].T + J * sympy.Matrix(n, n, lambda a, e: b[a][e][c]) * J.T for c in range(n)]
    inverse = dict(zip(u, (to_sympy(t) for t in u_of_w)))

    def back(e):
        text = str(sympy.cancel(e.subs(inverse, simultaneous=True)))
        return parse(text.replace("**", "^"), vars)

    g1 = J * g * J.T
    return HydroBracket(
        vars=vars,
        g=[[back(g1[i, j]) for j in range(n)] for i in range(n)],
        b=[
            [[back(sum(X[c][i, j] * Jinv[c, k] for c in range(n))) for k in range(n)] for j in range(n)]
            for i in range(n)
        ],
        K=B.K,
    )


# ---------------------------------------------------------------------------
# the paper's closed-form flows
# ---------------------------------------------------------------------------


class InconsistencyError(RuntimeError):
    """Two routes that must agree produced different verdicts."""


def _closed_form_data(P: CanonicalPair):
    """The pieces of the paper's closed-form flows, read from the pair:
    (vars, h, K, dh, d2h, v, eta v, S0) with h^i and K those of P, dh, d2h
    its cached derivatives, eta v the covector eta_{jl} v^l and
    S0 = (1/2) eta_{jl} v^j v^l."""
    v = [Expr.var(x) for x in P.vars]
    ev = P.eta.lower(v)
    return P.vars, P.H, P.K, *P._derivatives, v, ev, _dot(v, ev) * Fraction(1, 2)


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
    rec = apply_recursion(
        P, translation_flow(eta, vars), gauge=_hierarchy.eta_gradient_gauge(P)
    )
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
    return apply_recursion(P, t1, gauge=_hierarchy.eta_gradient_gauge(P))


def linear_density_flow(P: CanonicalPair, c: Sequence) -> ConservativeFlow:
    """The flow generated by the nonlocal operator of the pair from the
    linear density c_j v^j: coefficients b1^{ij}_k c_j + K (c_j v^j) delta^i_k.
    This is exactly the defect produced one level after choosing gauge zero
    instead of the covector c."""
    c = tuple(as_expr(x) for x in c)
    if len(c) != P.n:
        raise ValueError("covector length must match the pair")
    cv = _dot(c, [Expr.var(x) for x in P.vars])
    return ConservativeFlow(P.eta, recursion_matrix(P, cv), P.vars)


# ---------------------------------------------------------------------------
# the Lenard chain
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
    n = P.n
    previous = translation_flow(P.eta, P.vars) if previous is None else previous

    def residuals(M):
        for i in range(n):
            for k in range(n):
                yield (i + 1, k + 1), M[i][k] - flow.V[i][k]

    p1 = recursion_matrix(P, previous.S)
    p2 = operator_matrix(P.eta.as_hydro(flow.vars), flow.S)
    return _report([("eq1", residuals(p1)), ("eq2", residuals(p2))])


# ---------------------------------------------------------------------------
# the nonlocal operator, numerically
# ---------------------------------------------------------------------------


def spectral_antidx(grid: Grid, s: np.ndarray) -> np.ndarray:
    """Mean-zero periodic antiderivative; the input must be (numerically)
    mean-free."""
    scale = float(np.max(np.abs(s))) if s.size else 0.0
    mean = float(np.mean(s))
    if scale > 0 and abs(mean) > 1e-8 * scale:
        raise SimulationError(
            f"antiderivative input has nonzero mean ({mean:.3e})"
        )
    spec = np.fft.rfft(s)
    k = grid.wavenumbers
    spec[0] = 0.0
    spec[1:] = spec[1:] / (1j * k[1:])
    spec[-1] = 0.0
    return np.fft.irfft(spec, n=grid.m)


def apply_P1_numeric(
    P: CanonicalPair, grid: Grid, v: np.ndarray, xi: np.ndarray
) -> np.ndarray:
    """Apply the nonlocal operator of the pair to a sampled covector field
    at the field v, shape (N, M):
    g1^{ij}(v) (xi_j)_x + b1^{ij}_k v^k_x xi_j + K v^i_x (d/dx)^{-1}(v^j_x xi_j).

    The antiderivative uses the mean-zero convention, so against the
    symbolic route the result differs by K (mean S) v_x when xi = grad S.
    """
    n = P.n
    B = P._bracket
    if not B.K.is_const():
        raise ValueError("numeric application needs a numeric nonlocal constant")
    K = float(B.K.const_value())
    xi = np.asarray(xi, dtype=float)
    if xi.shape != v.shape:
        raise ValueError("covector field must match the state shape")
    table = MonomialTable(
        [B.g[i][j] for i in range(n) for j in range(n)]
        + [B.b[i][j][k] for i in range(n) for j in range(n) for k in range(n)],
        B.vars,
    )
    values = table(v)
    g = values[: n * n].reshape(n, n, -1)
    b = values[n * n :].reshape(n, n, n, -1)
    vx = spectral_dx(grid, v)
    tail = spectral_antidx(grid, np.sum(vx * xi, axis=0))
    out = (
        K * vx * tail
        + np.einsum("ijm,jm->im", g, spectral_dx(grid, xi))
        + np.einsum("ijkm,km,jm->im", b, vx, xi)
    )
    if not np.all(np.isfinite(out)):
        raise SimulationError("nonlocal operator produced non-finite values")
    return out


# ---------------------------------------------------------------------------
# the scanner
# ---------------------------------------------------------------------------

# A number is ASCII digits with at most one decimal point (``str.isdigit``
# would also admit digits such as '²' or '٣', which ``int`` rejects or reads).
_DIGITS = frozenset("0123456789")


class ScannerTokenizer:
    """The tokens of ``text`` read one ahead, one character at a time; the
    same interface as ``expr._Tokenizer`` (``kind``, ``value``, ``start`` of
    the next token, ``take``)."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._advance()

    def _advance(self):
        text, n = self.text, len(self.text)
        i = self.pos
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            self.kind, self.value, self.start = "end", "", i
            self.pos = i
            return
        c = text[i]
        start = i
        if c in _DIGITS or (c == "." and text[i + 1 : i + 2] in _DIGITS):
            j = i
            seen_dot = False
            while j < n and (text[j] in _DIGITS or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            limit = sys.get_int_max_str_digits()
            if limit and j - i - seen_dot > limit:
                raise ParseError(f"number has more than {limit} digits", i)
            self.kind, self.value = "number", text[i:j]
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            self.kind, self.value = "name", text[i:j]
            i = j
        elif c in "+-*/^()":
            self.kind, self.value = c, c
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
        self.start = start
        self.pos = i

    def take(self):
        kind, value, start = self.kind, self.value, self.start
        self._advance()
        return kind, value, start
