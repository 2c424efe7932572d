"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass/fail
line per criterion.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from hydrobrackets import geometry as geo
from hydrobrackets.bracket import (
    CanonicalPair,
    ConstantBracket,
    HydroBracket,
    build_canonical,
    check_canonical_equations,
    check_compat_constant,
    check_poisson,
    equivalence_audit,
    liouville_function,
    special_liouville,
)
from hydrobrackets.expr import Expr, Zeroness, is_zero, parse
from hydrobrackets.hierarchy import (
    apply_recursion,
    commute_check,
    eta_gradient_gauge,
    hierarchy,
    recursion_matrix,
    translation_flow,
)
from hydrobrackets import numsim as ns

import oracles
from oracles import bihamiltonian_check, flow_t1, flow_t2, linear_density_flow

ETA1 = ConstantBracket([[1]])
ETA2 = ConstantBracket([[1, 0], [0, 1]])
UV = ("u1", "u2")
TWO_PI = 2 * np.pi

# pinned tolerances
CHAR_ORACLE_TOL = 1e-6
DRIFT_TOL = 1e-8
P1_AGREEMENT_TOL = 1e-8
COMMUTE_RATIO_MIN = 7.0
AXIOM_RUNTIME_LIMIT = 30.0
SIM_RUNTIME_LIMIT = 10.0


def _zero(e) -> bool:
    return is_zero(e) is Zeroness.ZERO


def _metric_bracket(a, K):
    vars = geo.field_vars(len(a))
    up, down, _ = geo.canonical_metric(a, K)
    return HydroBracket(vars=vars, g=up, b=geo.christoffel(vars, up, down), K=Expr.const(K))


def _random_fraction(rng, lo=-4, hi=4, den=3):
    while True:
        v = Fraction(rng.randint(lo, hi), rng.randint(1, den))
        if v != 0:
            return v


def test_criterion_1_axiom_soundness():
    start = time.monotonic()
    rng = random.Random(1)
    # constant bracket: all five families exactly zero
    assert check_poisson(ETA2.as_hydro(UV)).passed
    # closed-form constant-curvature metrics with their own connections
    for n in (2, 3):
        for _ in range(5):
            a = [_random_fraction(rng) for _ in range(n)]
            K = _random_fraction(rng)
            B = _metric_bracket(a, K)
            assert check_poisson(B).passed, (a, K)
    # one perturbed metric fails and carries a witness
    B = _metric_bracket([1, 3], 2)
    b = [[[B.b[i][j][k] for k in range(2)] for j in range(2)] for i in range(2)]
    b[0][0][0] = b[0][0][0] + Expr.var("u1")
    bad = check_poisson(HydroBracket(vars=UV, g=B.g, b=b, K=B.K))
    assert not bad.passed
    assert any(c.witness is not None for c in bad.conditions if c.status is Zeroness.NONZERO)
    elapsed = time.monotonic() - start
    assert elapsed < AXIOM_RUNTIME_LIMIT
    print(f"PASS criterion 1: axiom soundness ({elapsed:.1f}s)")


def test_criterion_2_curvature_bracket_equivalence():
    u1, u2 = Expr.var("u1"), Expr.var("u2")
    one, zero = Expr.const(1), Expr.const(0)
    fixtures = []
    for a, K in ([(1, 3), Fraction(2)], [(2, 1), Fraction(-1)]):
        fixtures.append((geo.canonical_metric(a, K)[0], K))
    flat = [[one, zero], [zero, one]]
    fixtures.append((flat, Fraction(1)))
    curved = [[one + u2 * u2, zero], [zero, one + u1 * u1]]
    fixtures.append((curved, Fraction(0)))
    mu = [
        [one - Expr.const(3) * u1 * u1, one - Expr.const(3) * u1 * u2],
        [one - Expr.const(3) * u1 * u2, Expr.const(2) - Expr.const(3) * u2 * u2],
    ]
    fixtures.append((mu, Fraction(3)))

    verdicts = []
    for g, K in fixtures:
        B = HydroBracket(vars=UV, g=g, b=geo.christoffel(UV, g), K=Expr.const(K))
        poisson = check_poisson(B).passed
        res = oracles.constant_curvature_residual(UV, g, K)
        flatness = all(
            _zero(res[i][j][k][l])
            for i in range(2)
            for j in range(2)
            for k in range(2)
            for l in range(2)
        )
        assert poisson == flatness, (K, poisson, flatness)
        verdicts.append(poisson)
    assert verdicts == [True, True, False, False, True]
    print("PASS criterion 2: curvature residual matches bracket verdict on 5 fixtures")


def test_criterion_3_canonical_equivalence_both_directions():
    rng = random.Random(33)
    mon = ["1", "u1", "u2", "u1^2", "u1*u2", "u2^2", "u1^3", "u1^2*u2", "u1*u2^2", "u2^3"]
    for _ in range(10):
        hs = []
        for _ in range(2):
            terms = rng.sample(mon, k=3)
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in terms]
            hs.append(" + ".join(f"({c})*({m})" for c, m in zip(coeffs, terms)))
        P = CanonicalPair(
            eta=ETA2,
            K=Fraction(rng.randint(-2, 2)),
            H=tuple(parse(t, UV) for t in hs),
            vars=UV,
        )
        assert equivalence_audit(P).extras["inconsistency"] is None
    # the linear family passes for arbitrary constants and arbitrary K
    cs = ("c11", "c12", "c21", "c22")
    linear = CanonicalPair(
        eta=ETA2,
        K=Expr.var("kap"),
        H=(
            parse("c11*u1 + c12*u2", UV + cs),
            parse("c21*u1 + c22*u2", UV + cs),
        ),
        vars=UV,
    )
    assert check_canonical_equations(linear).passed
    assert check_poisson(build_canonical(linear)).passed
    # a separable nonlinear potential with K != 0 fails both routes
    sep = CanonicalPair(
        eta=ETA2, K=1, H=(parse("u1^2/2", UV), Expr.const(0)), vars=UV
    )
    assert not check_canonical_equations(sep).passed
    assert not check_poisson(build_canonical(sep)).passed
    print("PASS criterion 3: potential equations match the direct check both ways")


def test_criterion_4_closed_form_metric_identities():
    rng = random.Random(4)
    for n in (1, 2, 3, 4):
        a = [_random_fraction(rng) for _ in range(n)]
        K = _random_fraction(rng)
        up, _, det_closed = geo.canonical_metric(a, K)
        assert (oracles.det(up) - det_closed).normal_form() == (
            Expr.const(0).normal_form()
        )
    # degenerate model inverts the contravariant matrix exactly
    for a, K in ([(0, 2), Fraction(1)], [(3, 0, 1), Fraction(1, 2)]):
        up, down, det_closed = geo.canonical_metric(a, K)
        n = len(a)
        for i in range(n):
            for j in range(n):
                prod = sum(
                    (up[i][s] * down[s][j] for s in range(n)),
                    Expr.const(0),
                )
                assert _zero(prod - Expr.const(1 if i == j else 0))
        assert _zero(oracles.det(up) - det_closed)
    # raised connection of the rank-one family: mu - K u u gives K d^i_k u^j
    for n in (2, 3):
        mu = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            mu[i][i] = Fraction(rng.randint(1, 4))
            for j in range(i + 1, n):
                mu[i][j] = mu[j][i] = Fraction(rng.randint(-2, 2), 3)
        K = _random_fraction(rng)
        vars = geo.field_vars(n)
        u = [Expr.var(v) for v in vars]
        g = [
            [Expr.const(mu[i][j]) - Expr.const(K) * u[i] * u[j] for j in range(n)]
            for i in range(n)
        ]
        b = geo.christoffel(vars, g)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    raised = -b[i][j][k]  # g^{is} Gamma^j_{sk}
                    expect = Expr.const(K) * u[j] if i == k else Expr.const(0)
                    assert (raised - expect).normal_form() == (
                        Expr.const(0).normal_form()
                    )
    print("PASS criterion 4: closed-form determinant, degenerate inverse, raised connection")


def test_criterion_5_liouville_round_trip_and_involution_equivalence():
    fixtures = [
        (["2*u1 - u2", "u1 + 3*u2"], 1),
        (["u1^2/2 + u1*u2", "u2^3/6"], 0),
        (["u1^3/6", "u2^2/2"], 0),
        (["0", "0"], 2),
        (["u1*u2", "u1^2/2"], 0),
    ]
    for h_texts, K in fixtures:
        P = CanonicalPair(
            eta=ETA2, K=K, H=tuple(parse(t, UV) for t in h_texts), vars=UV
        )
        B = build_canonical(P)
        H = special_liouville(liouville_function(B), ETA2, UV)
        B2 = build_canonical(CanonicalPair(eta=ETA2, K=B.K, H=H, vars=UV))
        for i in range(2):
            for j in range(2):
                assert _zero(B.g[i][j] - B2.g[i][j])
                for k in range(2):
                    assert _zero(B.b[i][j][k] - B2.b[i][j][k])

    # compatibility with the constant bracket is equivalent to involution of
    # the coordinates and the quadratic momentum density
    def involution_verdict(B):
        u = [Expr.var(v) for v in B.vars]
        dens = u + [
            sum(
                (
                    Expr.const(ETA2.down[i][j]) * u[i] * u[j]
                    for i in range(2)
                    for j in range(2)
                ),
                Expr.const(0),
            )
        ]
        return all(
            oracles.in_involution(B, a, b)
            for a, b in itertools.combinations_with_replacement(dens, 2)
        )

    u1 = Expr.var("u1")
    one, zero = Expr.const(1), Expr.const(0)
    pullback = [[one, -u1], [-u1, one + u1 * u1]]
    incompatible = HydroBracket(vars=UV, g=pullback, b=geo.christoffel(UV, pullback), K=zero)
    cases = [
        build_canonical(
            CanonicalPair(
                eta=ETA2,
                K=1,
                H=(parse("2*u1 - u2", UV), parse("u1 + 3*u2", UV)),
                vars=UV,
            )
        ),
        build_canonical(
            CanonicalPair(
                eta=ETA2,
                K=0,
                H=(parse("u1^3/6 + u1^2", UV), parse("u2^4/12", UV)),
                vars=UV,
            )
        ),
        incompatible,
    ]
    verdicts = []
    for B in cases:
        assert check_poisson(B).passed
        compat = check_compat_constant(B, ETA2).passed
        invol = involution_verdict(B)
        assert compat == invol
        verdicts.append(compat)
    assert verdicts == [True, True, False]
    print("PASS criterion 5: Liouville round trip and involution equivalence")


def test_criterion_6_hierarchy_identities():
    # three faces of the first flow coincide (symbolic potentials, N <= 2)
    extra = ("c0", "c1", "c2", "c3", "kap")
    scalar = CanonicalPair(
        eta=ETA1,
        K=Expr.var("kap"),
        H=(parse("c0 + c1*u1 + c2*u1^2 + c3*u1^3", ("u1",) + extra),),
        vars=("u1",),
    )
    linear = CanonicalPair(
        eta=ETA2,
        K=1,
        H=(parse("1/2 + 2*u1 - u2", UV), parse("-1/3 + u1 + 3*u2", UV)),
        vars=UV,
    )
    for P in (scalar, linear):
        t1 = flow_t1(P)
        V_op = recursion_matrix(P, translation_flow(P.eta, P.vars).S)
        for i in range(P.n):
            for k in range(P.n):
                assert _zero(V_op[i][k] - t1.V[i][k])
                assert _zero(t1.F[i].diff(t1.vars[k]) - t1.V[i][k])
        # expanded second flow equals the recursion route with gradient gauge
        t2 = flow_t2(P)  # internally cross-checked, raises on mismatch
        rec = apply_recursion(P, t1, gauge=eta_gradient_gauge(P))
        for i in range(P.n):
            assert _zero(t2.F[i] - rec.F[i])
            for k in range(P.n):
                assert _zero(t2.V[i][k] - rec.V[i][k])
        assert _zero(t2.S - rec.S)
        # gauge 0: the defect is exactly the flow of the linear density
        rec0 = apply_recursion(P, t1, gauge=None)
        gauge = eta_gradient_gauge(P)
        h0 = [h.at_origin(P.vars) for h in P.H]
        vlin = sum(
            (gauge[j] * Expr.var(P.vars[j]) for j in range(P.n)), Expr.const(0)
        )
        for i in range(P.n):
            assert _zero(t2.F[i] - rec0.F[i] - h0[i])
        assert _zero(t2.S - rec0.S - vlin)
        defect = linear_density_flow(P, gauge)
        r3 = apply_recursion(P, t2)
        r3_zero = apply_recursion(P, rec0)
        for i in range(P.n):
            for k in range(P.n):
                assert _zero(r3.V[i][k] - r3_zero.V[i][k] - defect.V[i][k])
        # both Hamiltonian representations of the first flow
        assert bihamiltonian_check(P, t1).passed
    print("PASS criterion 6: first/second flow identities and both representations")


def test_criterion_7_commutativity():
    pairs = [
        CanonicalPair(eta=ETA1, K=1, H=(parse("u1^2/2", ("u1",)),), vars=("u1",)),
        CanonicalPair(eta=ETA1, K=1, H=(parse("u1^3/6", ("u1",)),), vars=("u1",)),
        CanonicalPair(
            eta=ETA2,
            K=1,
            H=(parse("2*u1 - u2", UV), parse("u1 + 3*u2", UV)),
            vars=UV,
        ),
    ]
    for P in pairs:
        flows = hierarchy(P, 3)
        for (a, fa), (b, fb) in itertools.combinations(enumerate(flows), 2):
            assert commute_check(fa, fb).passed, (a, b)
    # numeric probe: defect drops by >= 7x under tau halving
    P = pairs[0]
    grid = ns.Grid(128, TWO_PI)
    v = 0.1 * np.sin(grid.nodes)[np.newaxis, :]
    t1, t2 = ns.compile_flow(flow_t1(P)), ns.compile_flow(flow_t2(P))
    cd = ns.commute_check_numeric(t1, t2, grid, v)
    assert cd.commuting and cd.ratio >= COMMUTE_RATIO_MIN
    print(f"PASS criterion 7: pairwise commutation, numeric ratio {cd.ratio:.2f}")


def test_criterion_8_characteristics_oracle_and_conservation():
    start = time.monotonic()
    P = CanonicalPair(eta=ETA1, K=0, H=(parse("u1^2/2", ("u1",)),), vars=("u1",))
    fl = flow_t1(P)
    grid = ns.Grid(256, TWO_PI)
    cf = ns.compile_flow(fl)
    v0 = ns.sample_initial_data(grid, [parse("0.1*sin(x)", ("x",), initial_data=True)])
    res = ns.run(cf, v0, grid, dt=1e-3, t_end=0.2, snapshot_times=[0.2])
    assert res.status == "completed"
    _, v = res.snapshots[-1]
    oracle = 0.1 * np.sin(grid.nodes)
    for _ in range(60):
        oracle = 0.1 * np.sin(grid.nodes + 3 * oracle * 0.2)
    err = float(np.max(np.abs(v[0] - oracle)))
    assert err < CHAR_ORACLE_TOL
    drifts = {d.name: d.relative for d in ns.drift_summary(cf, res.rows, grid, v0)}
    for name in ("U_1", "momentum", "H1", "H2"):
        assert drifts[name] < DRIFT_TOL, (name, drifts[name])
    elapsed = time.monotonic() - start
    assert elapsed < SIM_RUNTIME_LIMIT
    print(
        f"PASS criterion 8: characteristics error {err:.2e}, "
        f"worst drift {max(drifts.values()):.2e}, {elapsed:.1f}s"
    )


def test_criterion_9_symbolic_numeric_bracket_agreement():
    P = CanonicalPair(
        eta=ETA2,
        K=1,
        H=(parse("2*u1 - u2", UV), parse("u1 + 3*u2", UV)),
        vars=UV,
    )
    fl = flow_t1(P)
    cf = ns.compile_flow(fl)
    grid = ns.Grid(256, TWO_PI)
    rng = random.Random(99)
    K = float(P.K.const_value())
    worst = 0.0
    for _ in range(3):
        rows = []
        for _ in range(2):
            row = np.zeros(grid.m)
            for mode in range(1, 4):
                row += rng.uniform(-1, 1) * 0.08 / mode * np.sin(mode * grid.nodes)
                row += rng.uniform(-1, 1) * 0.08 / mode * np.cos(mode * grid.nodes)
            rows.append(row)
        v = np.stack(rows)
        xi = np.einsum("jl,lm->jm", cf.eta_down, v)
        numeric = oracles.apply_P1_numeric(P, grid, v, xi)
        s0 = 0.5 * np.einsum("jm,jl,lm->m", v, cf.eta_down, v)
        vx = np.stack([ns.spectral_dx(grid, v[i]) for i in range(2)])
        corrected = cf.rhs(grid, v) - K * float(np.mean(s0)) * vx
        worst = max(worst, float(np.max(np.abs(numeric - corrected))))
    assert worst < P1_AGREEMENT_TOL
    print(f"PASS criterion 9: nonlocal operator agreement {worst:.2e}")
