"""Recursion operator, explicit flows, Hamiltonian representations,
commutation and involution."""

from __future__ import annotations

import importlib
import itertools
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hydrobrackets.bracket import (
    CanonicalPair,
    ConstantBracket,
    build_canonical,
    functional_bracket_density,
    _nonclosed_at,
    operator_matrix,
)
from hydrobrackets.cli import load_problem
from hydrobrackets.expr import Expr, Zeroness, is_zero, parse
from hydrobrackets.hierarchy import (
    ClosednessError,
    ConservativeFlow,
    NotPoissonError,
    apply_recursion,
    commute_check,
    eta_gradient_gauge,
    hierarchy,
    involution_check,
    recursion_matrix,
    translation_flow,
)
from hydrobrackets.poly import Poly

from oracles import (
    InconsistencyError,
    bihamiltonian_check,
    flow_t1,
    flow_t2,
    in_involution,
    linear_density_flow,
)

ETA1 = ConstantBracket([[1]])
ETA2 = ConstantBracket([[1, 0], [0, 1]])
VS = ("v1", "v2")


def _zero(e) -> bool:
    return is_zero(e) is Zeroness.ZERO


def _scalar_pair(h_text, K, extra=()):
    return CanonicalPair(
        eta=ETA1, K=K, H=(parse(h_text, ("v1",) + tuple(extra)),), vars=("v1",)
    )


def _linear_pair(K=1):
    return CanonicalPair(
        eta=ETA2,
        K=K,
        H=(parse("2*v1 - v2", VS), parse("v1 + 3*v2", VS)),
        vars=VS,
    )


# -- independent scalar oracle -------------------------------------------------
#
# For one component with eta = 1 and K = 0 the recursion collapses to plain
# univariate calculus: V -> g1 S'' + b1 S' with g1 = 2h', b1 = h''.  The
# oracle below iterates that with bare coefficient lists (no Expr machinery),
# and the expected flows are frozen from it.


def _list_diff(p):
    return [c * (i + 1) for i, c in enumerate(p[1:], start=0)]


def _list_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _list_add(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    return out


def _list_ray_int(p):
    # antiderivative with value 0 at the origin
    return [Fraction(0)] + [c / (i + 1) for i, c in enumerate(p)]


def _scalar_oracle_chain(h_coeffs, levels):
    """V coefficient lists for levels 0..levels of the K=0 scalar hierarchy."""
    g1 = _list_mul([Fraction(2)], _list_diff(h_coeffs))
    b1 = _list_diff(_list_diff(h_coeffs))
    S = [Fraction(0), Fraction(0), Fraction(1, 2)]  # v^2/2
    out = [[Fraction(1)]]
    for _ in range(levels):
        Spp = _list_diff(_list_diff(S))
        Sp = _list_diff(S)
        V = _list_add(_list_mul(g1, Spp), _list_mul(b1, Sp))
        out.append(V)
        F = _list_ray_int(V)
        S = _list_ray_int(F)  # eta = 1
    return out


def test_scalar_oracle_chain_frozen_values():
    chain = _scalar_oracle_chain([Fraction(0), Fraction(0), Fraction(1, 2)], 3)
    assert chain[1] == [Fraction(0), Fraction(3)]  # 3 v
    assert chain[2] == [Fraction(0), Fraction(0), Fraction(15, 2)]  # 15/2 v^2
    assert chain[3] == [Fraction(0), Fraction(0), Fraction(0), Fraction(35, 2)]


def test_hierarchy_matches_scalar_oracle():
    P = _scalar_pair("v1^2/2", 0)
    flows = hierarchy(P, 3)
    v = Expr.var("v1")
    chain = _scalar_oracle_chain([Fraction(0), Fraction(0), Fraction(1, 2)], 3)
    for level, coeffs in enumerate(chain):
        expect = sum((v**i * c for i, c in enumerate(coeffs)), Expr.const(0))
        assert _zero(flows[level].V[0][0] - expect)
    assert _zero(flows[1].F[0] - parse("3/2*v1^2", ("v1",)))
    assert _zero(flows[1].S - parse("v1^3/2", ("v1",)))


# -- translation flow ------------------------------------------------------------


def test_translation_flow_identity():
    fl = translation_flow(ETA2, VS)
    for i in range(2):
        assert _zero(fl.F[i] - Expr.var(f"v{i + 1}"))
        for k in range(2):
            assert _zero(fl.V[i][k] - Expr.const(1 if i == k else 0))
    assert _zero(fl.S - parse("(v1^2 + v2^2)/2", ("v1", "v2")))


def test_translation_flow_indefinite_eta():
    fl = translation_flow(ConstantBracket([[1, 0], [0, -1]]), VS)
    assert _zero(fl.S - parse("(v1^2 - v2^2)/2", ("v1", "v2")))


# -- recursion -----------------------------------------------------------------


def test_apply_recursion_scalar_step():
    P = _scalar_pair("v1^2/2", 0)
    fl1 = apply_recursion(P, translation_flow(ETA1, ("v1",)))
    assert _zero(fl1.V[0][0] - parse("3*v1", ("v1",)))
    assert _zero(fl1.F[0] - parse("3/2*v1^2", ("v1",)))


def test_apply_recursion_reproduces_closed_form_with_gradient_gauge():
    # potentials with h(0) != 0 exercise the gauge constant
    P = CanonicalPair(
        eta=ETA2,
        K=1,
        H=(parse("1/2 + 2*v1 - v2", VS), parse("-1/3 + v1 + 3*v2", VS)),
        vars=VS,
    )
    rec = apply_recursion(P, translation_flow(ETA2, VS), gauge=eta_gradient_gauge(P))
    t1 = flow_t1(P)
    for i in range(2):
        assert _zero(rec.F[i] - t1.F[i])
        for k in range(2):
            assert _zero(rec.V[i][k] - t1.V[i][k])
    assert _zero(rec.S - t1.S)


def test_recursion_constant_coefficient_square():
    # linear potentials with K = 0: level-2 coefficients square level-1's
    P = CanonicalPair(
        eta=ETA2, K=0, H=(parse("2*v1 - v2", VS), parse("v1 + 3*v2", VS)), vars=VS
    )
    flows = hierarchy(P, 2)
    V1, V2 = flows[1].V, flows[2].V
    for i in range(2):
        for k in range(2):
            sq = sum((V1[i][s] * V1[s][k] for s in range(2)), Expr.const(0))
            assert _zero(V2[i][k] - sq)


def test_flows_live_in_the_variables_of_their_pair():
    # one pair over u1, u2 and over v1, v2: every level carries its pair's
    # variables, and prints the same once the names are swapped
    texts = ("u1 + 3*u2 + (u1^2+u2^2)/2", "2*u1 - u2 + 2*(u1^2+u2^2)")
    printed = {}
    for vars in (("u1", "u2"), VS):
        spelled = dict(zip(("u1", "u2"), vars))
        P = CanonicalPair(eta=ETA2, K=1, H=tuple(parse(t, spelled) for t in texts), vars=vars)
        flows = hierarchy(P, 3)
        assert all(fl.vars == vars for fl in flows)
        printed[vars] = [str(x) for fl in flows for x in (*fl.F, fl.S, *fl.V[0], *fl.V[1])]
    assert [x.replace("u", "v") for x in printed[("u1", "u2")]] == printed[VS]


def test_apply_recursion_rejects_a_flow_over_other_variables():
    P = _linear_pair()
    for flow in (translation_flow(ETA2, ("u1", "u2")), translation_flow(ETA1, ("v1",))):
        with pytest.raises(ValueError, match="^flow and pair variables differ$"):
            apply_recursion(P, flow)


def test_closedness_failure_raised_for_invalid_pair():
    P = CanonicalPair(
        eta=ETA2, K=1, H=(parse("v1^2/2", VS), Expr.const(0)), vars=VS
    )
    with pytest.raises(ClosednessError):
        apply_recursion(P, flow_t1(P))


def test_closedness_error_names_row_and_indices():
    P = CanonicalPair(
        eta=ETA2, K=1, H=(parse("v1^2/2", VS), Expr.const(0)), vars=VS
    )
    with pytest.raises(ClosednessError, match=r"^coefficient row 1 is not a gradient at \(1,2\)$"):
        apply_recursion(P, flow_t1(P))


def test_hierarchy_rejects_invalid_pair_and_negative_levels():
    with pytest.raises(NotPoissonError):
        hierarchy(
            CanonicalPair(eta=ETA2, K=1, H=(parse("v1^2/2", VS), Expr.const(0)), vars=VS),
            2,
        )
    with pytest.raises(ValueError):
        hierarchy(_linear_pair(), -1)


def test_flow_invariants_enforced():
    v2 = Expr.var("v2")
    with pytest.raises(ClosednessError, match=r"^coefficient row 1 is not a gradient at \(1,2\)$"):
        ConservativeFlow(eta=ETA2, V=((v2, 0), (0, 1)), vars=VS)
    with pytest.raises(
        ClosednessError,
        match=r"^eta-lowered coefficient matrix is not symmetric at \(1,2\); "
        r"no scalar potential exists$",
    ):
        ConservativeFlow(eta=ETA2, V=((0, 1), (0, 0)), vars=VS)


def test_every_row_is_checked_before_any_row_is_integrated():
    # row 1 is closed but not polynomial, row 2 is polynomial but not closed:
    # integrating row 1 first would raise UnsupportedIntegrandError instead
    v1, v2 = Expr.var("v1"), Expr.var("v2")
    with pytest.raises(ClosednessError, match=r"^coefficient row 2 is not a gradient at \(1,2\)$"):
        ConservativeFlow(ETA2, [[1 / (1 + v1), 0], [v2, 0]], VS)


def test_flow_dimensions_must_match_eta():
    for V in (((1,),), ((1, 0), (0,))):
        with pytest.raises(ValueError, match="^flow dimensions do not match eta$"):
            ConservativeFlow(eta=ETA2, V=V, vars=VS)
    with pytest.raises(ValueError, match="^gauge covector has wrong length$"):
        ConservativeFlow(eta=ETA2, V=((1, 0), (0, 1)), vars=VS, gauge=(1,))


# -- the first flow -------------------------------------------------------------


def test_flow_t1_scalar_general_coefficient():
    # V1 = 2h' + h'' v - (3/2) K v^2 for arbitrary cubic h and symbolic K
    extra = ("c0", "c1", "c2", "c3", "kap")
    P = _scalar_pair("c0 + c1*v1 + c2*v1^2 + c3*v1^3", Expr.var("kap"), extra)
    t1 = flow_t1(P)
    v = Expr.var("v1")
    h = parse("c0 + c1*v1 + c2*v1^2 + c3*v1^3", ("v1",) + extra)
    expect = (
        h.diff("v1") * 2 + h.diff("v1").diff("v1") * v - Expr.var("kap") * v * v * Fraction(3, 2)
    )
    assert _zero(t1.V[0][0] - expect)


def test_flow_t1_three_forms_coincide():
    # operator form, expanded form and flux gradient agree
    for P in (
        _linear_pair(K=1),
        CanonicalPair(
            eta=ETA2,
            K=0,
            H=(parse("v1^3/6 + v1*v2", VS), parse("v2^2/2", VS)),
            vars=VS,
        ),
    ):
        t1 = flow_t1(P)
        vars = t1.vars
        s0 = translation_flow(P.eta, P.vars).S
        V_op = recursion_matrix(P, s0)
        n = P.n
        for i in range(n):
            for k in range(n):
                assert _zero(V_op[i][k] - t1.V[i][k])
                assert _zero(t1.F[i].diff(vars[k]) - t1.V[i][k])


def test_flow_t1_three_forms_fully_symbolic_cubic():
    # generic cubic potentials: every coefficient and K symbolic; the three
    # faces agree identically in all 21 parameters
    mons = ["1", "v1", "v2", "v1^2", "v1*v2", "v2^2", "v1^3", "v1^2*v2", "v1*v2^2", "v2^3"]
    params = tuple(f"a{i}" for i in range(10)) + tuple(f"b{i}" for i in range(10)) + ("kap",)
    h1 = " + ".join(f"a{i}*({m})" for i, m in enumerate(mons))
    h2 = " + ".join(f"b{i}*({m})" for i, m in enumerate(mons))
    P = CanonicalPair(
        eta=ETA2,
        K=Expr.var("kap"),
        H=(parse(h1, VS + params), parse(h2, VS + params)),
        vars=VS,
    )
    t1 = flow_t1(P)  # construction verifies the gradient and potential faces
    V_op = recursion_matrix(P, translation_flow(ETA2, VS).S)
    for i in range(2):
        for k in range(2):
            assert _zero(V_op[i][k] - t1.V[i][k])


def test_flow_t1_scalar_fixture():
    P = _scalar_pair("v1^2/2", 0)
    t1 = flow_t1(P)
    assert _zero(t1.F[0] - parse("3/2*v1^2", ("v1",)))
    assert _zero(t1.V[0][0] - parse("3*v1", ("v1",)))


def test_flow_t1_checks_closed_form_against_recursion(monkeypatch):
    # with the gauge dropped, the recursion route loses the constant h(0)
    # that the closed form carries, so the check must fire
    P = CanonicalPair(
        eta=ETA2,
        K=1,
        H=(parse("1/2 + 2*v1 - v2", VS), parse("-1/3 + v1 + 3*v2", VS)),
        vars=VS,
    )
    # the package re-exports the function ``hierarchy`` under the module's name
    module = importlib.import_module("hydrobrackets.hierarchy")
    monkeypatch.setattr(module, "eta_gradient_gauge", lambda P: (0,) * P.n)
    with pytest.raises(
        InconsistencyError, match=r"closed-form F\[1\] disagrees with the recursion route"
    ):
        flow_t1(P)


# -- the second flow -------------------------------------------------------------


def test_flow_t2_scalar_fixture():
    P = _scalar_pair("v1^2/2", 0)
    t2 = flow_t2(P)
    assert _zero(t2.V[0][0] - parse("15/2*v1^2", ("v1",)))


def test_flow_t2_matches_recursion_with_gradient_gauge():
    extra = ("c0", "c1", "c2", "c3", "kap")
    for P in (
        _linear_pair(K=1),
        _scalar_pair("c0 + c1*v1 + c2*v1^2 + c3*v1^3", Expr.var("kap"), extra),
    ):
        t2 = flow_t2(P)  # raises InconsistencyError on any mismatch
        rec = apply_recursion(P, flow_t1(P), gauge=eta_gradient_gauge(P))
        for i in range(P.n):
            assert _zero(t2.F[i] - rec.F[i])
        assert _zero(t2.S - rec.S)


def test_gauge_zero_defect_decomposition():
    # with gauge 0 the second-level potentials lose exactly the constant
    # h(0) / linear density eta h(0) v; one level later the coefficient
    # defect is exactly the flow of that linear density
    extra = ("c0", "c1", "c2", "c3", "kap")
    P = _scalar_pair("c0 + c1*v1 + c2*v1^2 + c3*v1^3", Expr.var("kap"), extra)
    t2 = flow_t2(P)
    rec0 = apply_recursion(P, flow_t1(P), gauge=None)
    gauge = eta_gradient_gauge(P)
    h0 = [h.at_origin(P.vars) for h in P.H]
    for i in range(P.n):
        assert _zero(t2.F[i] - rec0.F[i] - h0[i])
        for k in range(P.n):
            assert _zero(t2.V[i][k] - rec0.V[i][k])
    vlin = sum(
        (gauge[j] * Expr.var(f"v{j + 1}") for j in range(P.n)), Expr.const(0)
    )
    assert _zero(t2.S - rec0.S - vlin)
    r3 = apply_recursion(P, t2)
    r3_zero = apply_recursion(P, rec0)
    defect = linear_density_flow(P, gauge)
    for i in range(P.n):
        for k in range(P.n):
            assert _zero(r3.V[i][k] - r3_zero.V[i][k] - defect.V[i][k])


# -- Hamiltonian representations -------------------------------------------------


def test_bihamiltonian_scalar_general():
    extra = ("c0", "c1", "c2", "c3", "kap")
    P = _scalar_pair("c0 + c1*v1 + c2*v1^2 + c3*v1^3", Expr.var("kap"), extra)
    report = bihamiltonian_check(P, flow_t1(P))
    assert report.passed


def test_bihamiltonian_linear_pair():
    P = _linear_pair(K=1)
    report = bihamiltonian_check(P, flow_t1(P))
    assert report.passed


def test_bihamiltonian_zero_flow():
    P = CanonicalPair(eta=ETA1, K=0, H=(Expr.const(0),), vars=("v1",))
    zero = Expr.const(0)
    fl = ConservativeFlow(eta=ETA1, V=((zero,),), vars=("v1",))
    assert bihamiltonian_check(P, fl).passed


@pytest.mark.parametrize(
    "eta,h_texts",
    [
        (ConstantBracket([[2, 1], [1, 1]]), ["2*u1 - u2", "u1 + 3*u2"]),
        (
            ConstantBracket([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            ["2*u1 - u2 + u3", "u1 + 3*u2", "2*u1 + u2 - u3"],
        ),
    ],
    ids=["N2-nondiagonal-eta", "N3"],
)
def test_every_level_is_bihamiltonian(eta, h_texts):
    # V_n = P2 grad S_n and V_{n+1} = P1 grad S_n at levels 0..3
    vars = tuple(f"u{i + 1}" for i in range(eta.n))
    H = tuple(parse(t, vars) for t in h_texts)
    P = CanonicalPair(eta=eta, K=1, H=H, vars=vars)
    flows = hierarchy(P, 4)
    v = flows[0].vars
    for fl, nxt in zip(flows[:4], flows[1:]):
        p2 = operator_matrix(eta.as_hydro(v), fl.S)
        p1 = recursion_matrix(P, fl.S)
        for i in range(eta.n):
            for k in range(eta.n):
                assert _zero(p2[i][k] - fl.V[i][k])
                assert _zero(p1[i][k] - nxt.V[i][k])


_LINEAR_N2 = ("2*u1 - u2", "u1 + 3*u2")
_LINEAR_N3 = ("2*u1 - u2 + u3", "u1 + 3*u2", "2*u1 + u2 - u3")


# (eta, K, H) of the pairs whose affinor the tests below read
_AFFINOR_PAIRS = {
    "n2-identity": ([[1, 0], [0, 1]], 1, _LINEAR_N2),
    "n2-offdiagonal-K0": ([[0, 1], [1, 0]], 0, _LINEAR_N2),
    "n2-offdiagonal-K1": ([[0, 1], [1, 0]], 1, _LINEAR_N2),
    "n2-diagonal-indefinite": ([[1, 0], [0, -1]], 1, _LINEAR_N2),
    # eta is not its own inverse: the only pairs that tell eta_{sj} from eta^{sj}
    "n2-nondiagonal-K1": ([[2, 1], [1, 1]], 1, _LINEAR_N2),
    "n2-nondiagonal-K-1": ([[2, 1], [1, 1]], -1, _LINEAR_N2),
    "n2-quadratic": ([[1, 0], [0, 1]], 1, ("u1 + (u1^2 + u2^2)/2", "3*u2 + (u1^2 + u2^2)")),
    "n2-offdiagonal-half": ([[0, 1], [1, 0]], 1, ("u1/2", "3*u2/2")),
    "n3-identity": ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1, _LINEAR_N3),
    "n3-indefinite-K0": ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], 0, _LINEAR_N3),
    "n3-indefinite-K-1": ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], -1, _LINEAR_N3),
}
# two more K = 0 pairs, for the origin test only
_K0_PAIRS = {
    "n2-offdiagonal-half-K0": ([[0, 1], [1, 0]], 0, ("u1/2", "3*u2/2")),
    "n2-diagonal-indefinite-K0": ([[1, 0], [0, -1]], 0, _LINEAR_N2),
}
# the committed pairs, read as the commands read them
_COMMITTED_AFFINOR = (
    "problems/canonical_metric_n2.json",
    "tests/golden/canonical_eta_n2.json",
    "tests/golden/gauge_n2.json",
)


def _affinor_pair(case):
    if case.endswith(".json"):
        return load_problem(str(ROOT / case), "u").canonical_pair()
    eta, K, h_texts = {**_AFFINOR_PAIRS, **_K0_PAIRS}[case]
    eta = ConstantBracket(eta)
    vars = tuple(f"u{i + 1}" for i in range(eta.n))
    return CanonicalPair(eta=eta, K=K, H=tuple(parse(t, vars) for t in h_texts), vars=vars)


def _affinor(P):
    """The affinor L^i_j = g1^{is} eta_{sj} of the pair."""
    g1 = build_canonical(P).g
    n = range(P.n)
    return [[sum((g1[i][s] * P.eta.down[s][j] for s in n), Expr.const(0)) for j in n] for i in n]


@pytest.mark.parametrize("case", [*_AFFINOR_PAIRS, *_COMMITTED_AFFINOR])
def test_every_level_commutes_with_the_affinor(case):
    # [V_n, L] = 0 exactly, at levels 1-4 (1-3 when N = 3)
    P = _affinor_pair(case)
    L = _affinor(P)
    n = range(P.n)
    for fl in hierarchy(P, 4 if P.n == 2 else 3)[1:]:
        V = fl.V
        for i, j in itertools.product(n, n):
            commutator = sum((V[i][s] * L[s][j] - L[i][s] * V[s][j] for s in n), Expr.const(0))
            assert _zero(commutator), (i, j)


# the indefinite linear N = 2 pairs: L(0) has a complex pair of eigenvalues
_COMPLEX_AT_ORIGIN = {
    "n2-offdiagonal-K0", "n2-offdiagonal-K1", "n2-diagonal-indefinite", "n2-diagonal-indefinite-K0",
}


@pytest.mark.parametrize("case", [*_AFFINOR_PAIRS, *_K0_PAIRS])
def test_the_affinor_at_the_origin_decides_complex_speeds(case):
    # the characteristic polynomial of L(0) has a non-real root exactly when
    # that of every V_n(0) has one: the count of non-real roots is the degree
    # of the square-free part less the number of real roots
    sympy = pytest.importorskip("sympy")
    P = _affinor_pair(case)

    def complex_at_origin(M):
        at_0 = [[sympy.Rational(str(e.at_origin(P.vars).const_value())) for e in row] for row in M]
        sqf = sympy.Matrix(at_0).charpoly().sqf_part()
        return bool(sqf.degree() > sqf.count_roots())

    expected = case in _COMPLEX_AT_ORIGIN
    assert complex_at_origin(_affinor(P)) is expected
    for fl in hierarchy(P, 3)[1:]:
        assert complex_at_origin(fl.V) is expected


def test_bihamiltonian_check_failure_has_witnesses():
    # the first flow of a pair with another eta: neither representation holds
    P = _linear_pair(K=1)
    Q = CanonicalPair(
        eta=ConstantBracket([[2, 1], [1, 1]]),
        K=0,
        H=(parse("v1^2/2", VS), parse("v2^3/6", VS)),
        vars=VS,
    )
    eq1, eq2 = bihamiltonian_check(P, flow_t1(Q)).conditions
    assert eq1.status is Zeroness.NONZERO and eq2.status is Zeroness.NONZERO
    assert eq1.witness.indices == (1, 1)
    assert eq1.witness.point == {
        "v1": Fraction(770881, 1000000),
        "v2": Fraction(-96041, 500000),
    }
    assert eq1.witness.value == Fraction(-2259910548483, 2000000000000)
    assert eq2.witness.indices == (1, 1)
    assert eq2.witness.point == {
        "v1": Fraction(294773, 500000),
        "v2": Fraction(866977, 1000000),
    }
    assert eq2.witness.value == Fraction(127419118529, 2000000000000)


# -- commutation ---------------------------------------------------------------


def test_scalar_flows_always_commute():
    a = _scalar_pair("v1^2/2", 0)
    b = _scalar_pair("v1^3/6", 0)
    assert commute_check(flow_t1(a), flow_t1(b)).passed


@pytest.mark.parametrize(
    "pair",
    [
        _scalar_pair("v1^2/2", 1),
        _scalar_pair("v1^3/6", 1),
        _linear_pair(K=1),
    ],
    ids=["quadratic-scalar", "cubic-scalar", "linear-two-component"],
)
def test_hierarchy_levels_commute_pairwise(pair):
    flows = hierarchy(pair, 3)
    for fa, fb in itertools.combinations(flows, 2):
        assert commute_check(fa, fb).passed


def test_symbolic_scalar_hierarchy_to_level_three():
    # arbitrary cubic potential with symbolic coefficients and symbolic K:
    # the whole chain stays exact to level 3
    extra = ("c0", "c1", "c2", "c3", "kap")
    P = _scalar_pair("c0 + c1*v1 + c2*v1^2 + c3*v1^3", Expr.var("kap"), extra)
    flows = hierarchy(P, 3)
    assert len(flows) == 4
    for fa, fb in itertools.combinations(flows, 2):
        assert commute_check(fa, fb).passed


def test_non_commuting_flows_have_witnesses():
    # first flows of two canonical pairs of the same eta that share no
    # hierarchy: the linear pair with K = 1 and a separable pair with K = 0
    a = CanonicalPair(
        eta=ETA2, K=1, H=(parse("2*v1 - v2", VS), parse("v1 + 3*v2", VS)), vars=VS
    )
    b = CanonicalPair(
        eta=ETA2, K=0, H=(parse("v1^2/2", VS), parse("v2^3/6", VS)), vars=VS
    )
    report = commute_check(flow_t1(a), flow_t1(b))
    vxx, vxvx = report.conditions
    assert vxx.status is Zeroness.NONZERO and vxvx.status is Zeroness.NONZERO
    assert vxx.witness.indices == (1, 2)
    assert vxx.witness.point == {
        "v1": Fraction(770881, 1000000),
        "v2": Fraction(-96041, 500000),
    }
    assert vxx.witness.value == Fraction(
        -20719506899399360717599, 62500000000000000000000
    )
    assert vxvx.witness.indices == (1, 1, 2)
    assert vxvx.witness.point == {
        "v1": Fraction(294773, 500000),
        "v2": Fraction(866977, 1000000),
    }
    assert vxvx.witness.value == Fraction(-881705969491083167, 500000000000000000)


def test_potential_singular_at_the_origin_is_unsupported():
    from hydrobrackets.bracket import UnsupportedIntegrandError

    P = CanonicalPair(eta=ETA1, K=0, H=(parse("1/v1", ("v1",)),), vars=("v1",))
    with pytest.raises(UnsupportedIntegrandError, match=r"H\[1\] is singular"):
        hierarchy(P, 1)


def test_translation_commutes_with_first_flow():
    P = _linear_pair(K=1)
    assert commute_check(translation_flow(ETA2, VS), flow_t1(P)).passed


def test_linear_density_flow_is_commuting_symmetry():
    P = CanonicalPair(
        eta=ETA2,
        K=1,
        H=(parse("1/2 + 2*v1 - v2", VS), parse("-1/3 + v1 + 3*v2", VS)),
        vars=VS,
    )
    defect = linear_density_flow(P, eta_gradient_gauge(P))
    assert commute_check(defect, flow_t1(P)).passed
    assert commute_check(defect, translation_flow(ETA2, VS)).passed


# -- involution -----------------------------------------------------------------


def test_involution_of_hierarchy_densities():
    P = _linear_pair(K=1)
    flows = hierarchy(P, 2)
    assert involution_check(P, flows[0].S, flows[1].S)
    assert involution_check(P, flows[0].S, flows[0].S)


def test_annihilators_in_involution_with_momentum():
    P = _linear_pair(K=1)
    s0 = translation_flow(ETA2, VS).S
    for i in range(2):
        assert in_involution(P._bracket, Expr.var(f"v{i + 1}"), s0)


def test_involution_of_conserved_densities_along_first_flow():
    P = _linear_pair(K=1)
    flows = hierarchy(P, 1)
    t1 = flows[1]
    for dens in (Expr.var("v1"), Expr.var("v2"), flows[0].S, t1.S):
        assert involution_check(P, dens, t1.S)


def test_involution_multiplies_no_zero_polynomial(monkeypatch):
    # P2 is the constant bracket: its b entries and most g entries are zero,
    # and a product by zero must return before it reaches the polynomial
    # kernel (without that short-circuit, 540 of the 720 kernel products
    # here have a zero operand)
    v123 = ("v1", "v2", "v3")
    P = CanonicalPair(
        eta=ConstantBracket([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        K=1,
        H=tuple(parse(h, v123) for h in ("2*v1 - v2 + v3", "v1 + 3*v2", "2*v1 + v2 - v3")),
        vars=v123,
    )
    flows = hierarchy(P, 4)
    calls = []
    mul = Poly.__mul__

    def counted(self, other):
        calls.append(self.is_zero() or (isinstance(other, Poly) and other.is_zero()))
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    p2 = P.eta.as_hydro(v123)
    for fa, fb in itertools.combinations(flows, 2):
        assert in_involution(p2, fa.S, fb.S)
    assert calls and not any(calls)


# -- one judgement per integrand ------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
N3_PAIR = CanonicalPair(
    eta=ConstantBracket([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    K=1,
    H=tuple(
        parse(h, ("v1", "v2", "v3")) for h in ("2*v1 - v2 + v3", "v1 + 3*v2", "2*v1 + v2 - v3")
    ),
    vars=("v1", "v2", "v3"),
)


def _seeded_hierarchy_problems(tmp_path):
    """(problem file, levels) of every hierarchy job of the seeded exact
    workload at seeds 1 and 2, Hopf at its largest level only."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    out = {}
    for seed in (1, 2):
        work = tmp_path / f"seed{seed}"
        for job in workloads.build("exact", seed, ROOT, work).jobs:
            if job.argv[0] == "hierarchy":
                path, levels = job.argv[1], int(job.argv[3])
                out[path] = max(levels, out.get(path, 0))
    return sorted(out.items())


@pytest.mark.parametrize(
    "P",
    [
        N3_PAIR,
        CanonicalPair(
            eta=ConstantBracket([[2, 1], [1, 1]]),
            K=1,
            H=(parse("2*v1 - v2", VS), parse("v1 + 3*v2", VS)),
            vars=VS,
        ),
        _scalar_pair("v1^2/2", 0),
    ],
    ids=["n3", "n2-nondiagonal-eta", "hopf"],
)
def test_p1_integrand_is_the_p2_integrand_one_level_up(P):
    flows = hierarchy(P, 4)
    p2 = P.eta.as_hydro(flows[0].vars)
    for a, b in itertools.combinations(range(4), 2):
        one = functional_bracket_density(P._bracket, flows[a].S, flows[b].S)
        two = functional_bracket_density(p2, flows[a].S, flows[b + 1].S)
        assert [(w.num, w.den) for w in one] == [(w.num, w.den) for w in two]


@pytest.mark.parametrize("K", [0, 1, Fraction(-1, 2)])
def test_both_brackets_of_the_pair_are_skew(K):
    # the P1 involution of hierarchy()'s levels rests on this: for each
    # operator the integrands of (f, h) and (h, f) sum to a total derivative,
    # here for densities that are not in involution
    P = _linear_pair(K=K)
    f, h = parse("v1^3/6 + v2", VS), parse("v1*v2^2/2 - v1^2 + 3", VS)
    for B in (P._bracket, P.eta.as_hydro(VS)):
        fh = functional_bracket_density(B, f, h)
        hf = functional_bracket_density(B, h, f)
        assert _nonclosed_at(fh, VS) is not None
        assert _nonclosed_at([x + y for x, y in zip(fh, hf)], VS) is None


def test_hand_built_non_commuting_flows_fail_both_routes():
    # V = Hess(v1^3/6) and Hess(v1 v2^2/2) over eta = I: AB - BA has v1 v2
    # off the diagonal, and the P2 bracket of their densities is not exact
    v1, v2 = Expr.var("v1"), Expr.var("v2")
    A = ConservativeFlow(ETA2, [[v1, 0], [0, 0]], VS)
    B = ConservativeFlow(ETA2, [[0, v2], [v2, v1]], VS)
    assert not commute_check(A, B).passed
    assert not in_involution(ETA2.as_hydro(VS), A.S, B.S)


# nonlinear pairs with nonzero Hessians, K = 1 and K = 0
NONLINEAR_PAIRS = {
    "k1-eta-I": CanonicalPair(
        eta=ETA2,
        K=1,
        H=(parse("v1 + 3*v2 + (v1^2+v2^2)/2", VS), parse("2*v1 - v2 + 2*(v1^2+v2^2)", VS)),
        vars=VS,
    ),
    "k0-eta-I": CanonicalPair(
        eta=ETA2, K=0, H=(parse("(v1^2+v2^2)/2", VS), parse("v1*v2", VS)), vars=VS
    ),
    "k0-dual-numbers": CanonicalPair(
        eta=ConstantBracket([[0, 1], [1, 0]]),
        K=0,
        H=(parse("v1^2/2", VS), parse("v1*v2", VS)),
        vars=VS,
    ),
}


def _chain_holds(P, flows):
    return all(
        bihamiltonian_check(P, fl, previous=prev).passed for prev, fl in zip(flows, flows[1:])
    )


def _committed_pairs():
    for path in sorted((ROOT / "problems").glob("*.json")):
        prob = load_problem(str(path))
        if prob.h is not None:
            yield path.name, prob.canonical_pair()


def _passes_the_oracles(P, flows):
    """Every link of the chain holds, and every pair of levels commutes and
    is in involution under both operators, judged pair by pair."""
    return _chain_holds(P, flows) and all(
        commute_check(fa, fb).passed and involution_check(P, fa.S, fb.S)
        for fa, fb in itertools.combinations(flows, 2)
    )


def test_every_hierarchy_the_commands_build_passes_the_oracles(tmp_path):
    # the flow commands print PASS for every pair without judging it, on the
    # strength of hierarchy()'s gate and the flows' construction: check that
    # on the committed problems and every hierarchy file of both seeds (the
    # nonlinear pairs and the zero gauge are checked below)
    cases = [(name, P, 4) for name, P in _committed_pairs()]
    for path, levels in _seeded_hierarchy_problems(tmp_path):
        cases.append((path, load_problem(path).canonical_pair(), levels))
    assert len(cases) == 2 + 2 * 14  # two committed pairs; Hopf and 13 pairs per seed
    for name, P, levels in cases:
        assert _passes_the_oracles(P, hierarchy(P, levels)), name


@pytest.mark.parametrize("levels", [2, 3])
def test_the_chain_route_gives_the_expanded_verdicts(levels):
    # the nonlinear pairs, and the committed pairs under the zero gauge: every
    # link of the chain holds, and every pair passes the pairwise checks
    cases = [(name, P, False) for name, P in NONLINEAR_PAIRS.items()]
    cases += [(path, P, True) for path, P in _committed_pairs()]
    assert len(cases) == 5
    for name, P, zero_gauge in cases:
        assert _passes_the_oracles(P, hierarchy(P, levels, zero_gauge=zero_gauge)), name


def test_a_broken_link_leaves_every_pair_to_the_expanded_checks():
    # level 2 rebuilt with another gauge keeps its V but shifts its S by a
    # linear density, so level 3 is no longer the recursion of level 2; the
    # pairwise checks still pass every pair
    P = NONLINEAR_PAIRS["k1-eta-I"]
    flows = hierarchy(P, 3)
    flows[2] = apply_recursion(P, flows[1], gauge=[1, 0])
    report = bihamiltonian_check(P, flows[3], previous=flows[2])
    eq1 = {c.name: c for c in report.conditions}["eq1"]
    assert eq1.status is Zeroness.NONZERO and eq1.witness.indices == (1, 1)
    assert _chain_holds(P, flows[:3])
    for fa, fb in itertools.combinations(flows, 2):
        assert commute_check(fa, fb).passed and involution_check(P, fa.S, fb.S)


def test_non_commuting_flows_fail_the_chain_and_the_commute_verdict():
    v1, v2 = Expr.var("v1"), Expr.var("v2")
    A = ConservativeFlow(ETA2, [[v1, 0], [0, 0]], VS)
    B = ConservativeFlow(ETA2, [[0, v2], [v2, v1]], VS)
    P = _linear_pair()
    flows = [translation_flow(ETA2, VS), A, B]
    assert not _chain_holds(P, flows)
    assert not commute_check(A, B).passed


# -- covariance under linear maps ----------------------------------------------

UV = ("u1", "u2")
WV = ("w1", "w2")


def _covariance_pairs():
    yield "linear_pair_n2.json", load_problem(str(ROOT / "problems" / "linear_pair_n2.json")).canonical_pair()
    for name, eta, K, H in [
        ("quadratic", [[1, 0], [0, 1]], 1, ["u1 + (u1^2+u2^2)/2", "3*u2 + (u1^2+u2^2)"]),
        ("indefinite", [[0, 1], [1, 0]], 0, ["2*u1 - u2", "u1 + 3*u2"]),
    ]:
        yield name, CanonicalPair(ConstantBracket(eta), K, tuple(parse(h, UV) for h in H), UV)


def _matmul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), Expr.const(0)) for col in zip(*B)] for row in A]


def _same(M, N):
    return all(_zero(a - b) for ra, rb in zip(M, N) for a, b in zip(ra, rb))


def _inverse(A):
    (a, b), (c, d) = A
    det = Fraction(a * d - b * c)
    return [[d / det, -b / det], [-c / det, a / det]]


@pytest.mark.parametrize("A", [[[2, 1], [1, 1]], [[1, 3], [0, 1]], [[0, 1], [-1, 2]]])
@pytest.mark.parametrize("name,P", list(_covariance_pairs()))
def test_the_hierarchy_is_covariant_under_linear_maps(name, P, A):
    """u' = A u maps (eta, K, H) to (A eta A^T, K, A H(A^-1 u')); then at
    every level V' = A V A^-1, F' = A F and S' = S, each at A^-1 u'.  The
    transposed law A^-1 V A fails somewhere, so the test tells them apart."""
    Ainv = _inverse(A)
    images = [" + ".join(f"({c})*{w}" for c, w in zip(row, WV)) for row in Ainv]

    def pulled(e):
        # e in u1, u2 at u = A^-1 w, through the text
        return parse(re.sub(r"u(\d)", lambda m: f"({images[int(m.group(1)) - 1]})", str(e)), WV)

    A_, Ainv_ = ([[Expr.const(x) for x in row] for row in M] for M in (A, Ainv))
    eta = ConstantBracket([[x.const_value() for x in row] for row in _matmul(_matmul(A_, P.eta.up), list(zip(*A_)))])
    H = [row[0] for row in _matmul(A_, [[pulled(h)] for h in P.H])]
    flows = hierarchy(P, 3)
    moved = hierarchy(CanonicalPair(eta, P.K, tuple(H), WV), 3)
    wrong_law_fails = False
    for level, (f, g) in enumerate(zip(flows, moved)):
        V = [[pulled(x) for x in row] for row in f.V]
        assert _same(g.V, _matmul(_matmul(A_, V), Ainv_)), (name, level)
        assert _same([[x] for x in g.F], _matmul(A_, [[pulled(x)] for x in f.F])), (name, level)
        assert _zero(g.S - pulled(f.S)), (name, level)
        wrong_law_fails |= not _same(g.V, _matmul(_matmul(Ainv_, V), A_))
    assert wrong_law_fails, name
