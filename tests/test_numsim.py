"""Spectral operators, time stepping against analytic oracles, conservation,
and symbolic/numeric agreement."""

from __future__ import annotations

import functools
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hydrobrackets.bracket import CanonicalPair, ConstantBracket
from hydrobrackets.expr import parse
from hydrobrackets.hierarchy import flow_t1, flow_t2, hierarchy
from hydrobrackets import numsim as ns
from hydrobrackets.poly import ExpressionSizeError

ETA1 = ConstantBracket([[1]])
ETA2 = ConstantBracket([[1, 0], [0, 1]])
UV = ("u1", "u2")
TWO_PI = 2 * np.pi


def _scalar_pair(h_text, K):
    return CanonicalPair(eta=ETA1, K=K, H=(parse(h_text, ("u1",)),), vars=("u1",))


def _shallow_pair():
    return _scalar_pair("u1^2/2", 0)  # first flow: v_t = 3 v v_x


def _linear_pair(K=0):
    return CanonicalPair(
        eta=ETA2, K=K, H=(parse("u2/2", UV), parse("u1/2", UV)), vars=UV
    )


# -- grids and spectral operators ------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError, match="^grid size must be a power of two, at least 8$"):
        ns.Grid(6, 1.0)
    with pytest.raises(ValueError, match="^grid size must be a power of two, at least 8$"):
        ns.Grid(48, 1.0)
    with pytest.raises(ValueError, match="^period length must be positive$"):
        ns.Grid(64, 0.0)


@pytest.mark.parametrize(
    "v,message",
    [
        (np.zeros(8), r"^field array must have shape \(N, M\)$"),
        (np.zeros((1, 16)), r"^field array must have shape \(N, M\)$"),
        ([[0.0] * 7 + [np.inf]], "^field values must be finite$"),
    ],
)
def test_field_state_rejects_malformed_data(v, message):
    with pytest.raises(ValueError, match=message):
        ns.FieldState(ns.Grid(8, 1.0), v)


def test_spectral_dx_sin():
    g = ns.Grid(64, TWO_PI)
    x = g.nodes
    assert np.max(np.abs(ns.spectral_dx(g, np.sin(x)) - np.cos(x))) < 1e-12


def test_spectral_dx_constant():
    g = ns.Grid(32, 5.0)
    assert np.max(np.abs(ns.spectral_dx(g, np.full(32, 2.5)))) < 1e-14


def test_spectral_dx_band_limited():
    g = ns.Grid(16, TWO_PI)
    x = g.nodes
    err = np.max(np.abs(ns.spectral_dx(g, np.sin(7 * x)) - 7 * np.cos(7 * x)))
    assert err < 1e-10


def test_spectral_antidx_cos():
    g = ns.Grid(64, TWO_PI)
    x = g.nodes
    assert np.max(np.abs(ns.spectral_antidx(g, np.cos(x)) - np.sin(x))) < 1e-12


def test_spectral_antidx_zero():
    g = ns.Grid(32, 1.0)
    assert np.max(np.abs(ns.spectral_antidx(g, np.zeros(32)))) == 0.0


def test_antidx_inverts_dx_on_mean_zero_data():
    g = ns.Grid(64, TWO_PI)
    x = g.nodes
    w = np.sin(x) + 0.3 * np.sin(3 * x) - 0.2 * np.cos(5 * x)
    back = ns.spectral_antidx(g, ns.spectral_dx(g, w))
    assert np.max(np.abs(back - (w - w.mean()))) < 1e-12


def test_antidx_rejects_nonzero_mean():
    g = ns.Grid(32, 1.0)
    with pytest.raises(ns.SimulationError):
        ns.spectral_antidx(g, np.ones(32))


# -- compiled evaluators ----------------------------------------------------------


def _assert_matches_exact(exprs, vars, evaluate, seed, points=50):
    """``evaluate(stack)`` gives every expression at every sample column of
    a stack with one row per variable; compare with exact evaluation."""
    rng = random.Random(seed)
    stack = np.array([[rng.uniform(-1, 1) for _ in range(points)] for _ in vars])
    values = evaluate(stack)
    assert len(values) == len(exprs)
    for e, row in zip(exprs, values):
        for m in range(points):
            exact = float(e.evaluate(dict(zip(vars, stack[:, m]))))
            assert abs(exact - row[m]) <= 1e-12 * max(1.0, abs(exact)), e


def _each_compiled(exprs, vars):
    tables = [ns.MonomialTable([e], vars) for e in exprs]
    return lambda stack: [table(stack)[0] for table in tables]


def test_compiled_matches_exact_evaluation():
    P = CanonicalPair(
        eta=ETA2,
        K=Fraction(1, 2),
        H=(parse("u1^2/2 + u2", UV), parse("u1 - u2^3/6", UV)),
        vars=UV,
    )
    from hydrobrackets.bracket import build_canonical

    B = build_canonical(P).rename({"u1": "v1", "u2": "v2"})
    exprs = [B.g[i][j] for i in range(2) for j in range(2)]
    exprs += [B.b[i][j][k] for i in range(2) for j in range(2) for k in range(2)]
    _assert_matches_exact(exprs, ("v1", "v2"), _each_compiled(exprs, ("v1", "v2")), 12, 100)


def test_compiled_matches_exact_evaluation_rational_entries():
    # nonlinear H with a pole off [-1, 1]: the b entries carry denominators
    P = CanonicalPair(
        eta=ETA2, K=1, H=(parse("1/(2 + u1) + u2^2/2", UV), parse("u1*u2", UV)), vars=UV
    )
    from hydrobrackets.bracket import build_canonical

    B = build_canonical(P).rename({"u1": "v1", "u2": "v2"})
    vars = ("v1", "v2")
    exprs = [B.b[i][j][k] for i in range(2) for j in range(2) for k in range(2)]
    assert any(not e.is_poly() for e in exprs)
    _assert_matches_exact(exprs, vars, _each_compiled(exprs, vars), 13)
    # all entries in one table, sharing their denominator factor rows
    _assert_matches_exact(exprs, vars, ns.MonomialTable(exprs, vars), 14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compiled_flows_match_exact_evaluation(n):
    vars = tuple(f"u{i + 1}" for i in range(n))
    eta = ConstantBracket([[int(i == j) for j in range(n)] for i in range(n)])
    H = {1: ["u1^2/2"], 2: ["u2/2", "u1/2"], 3: ["u1", "u2", "u3"]}[n]
    P = CanonicalPair(eta=eta, K=1 if n > 1 else 0, H=tuple(parse(h, vars) for h in H), vars=vars)
    for fl in hierarchy(P, 3)[1:]:
        cf = ns.compile_flow(fl)
        entries = [fl.V[i][k] for i in range(n) for k in range(n)] + [fl.S]

        _assert_matches_exact(entries, fl.vars, cf.table, 40 + fl.level)
        # the V rows alone, as stages 2-4 of a step evaluate them
        V_rows = functools.partial(cf.table, count=n * n)
        _assert_matches_exact(entries[: n * n], fl.vars, V_rows, 50 + fl.level)


def test_compile_rejects_unbound_parameters():
    e = parse("c1*u1", ("u1", "c1"))
    with pytest.raises(ValueError):
        ns.MonomialTable([e.rename({"u1": "v1"})], ("v1",))


# -- stepping oracles --------------------------------------------------------------


def test_step_zero_field_stays_zero():
    fl = flow_t1(_shallow_pair())
    g = ns.Grid(64, TWO_PI)
    state = ns.FieldState(grid=g, v=np.zeros((1, 64)))
    cf = ns.compile_flow(fl)
    out = ns.step_rk4(cf, state, 1e-2, cf.rhs(g, state.v))
    assert np.all(out.v == 0.0)


def test_constant_field_is_steady():
    fl = flow_t1(_shallow_pair())
    g = ns.Grid(64, TWO_PI)
    state = ns.FieldState(grid=g, v=np.full((1, 64), 0.7))
    res = ns.run(fl, state.v, g, dt=1e-3, t_end=0.1)
    assert res.status == "completed"
    final = res.rows[-1]
    assert abs(final.integrals["U_1"] - 0.7 * TWO_PI) < 1e-12
    assert final.max_vx < 1e-12


def _characteristics_oracle(x, t, amplitude=0.1, speed=3.0, iters=60):
    v = amplitude * np.sin(x)
    for _ in range(iters):
        v = amplitude * np.sin(x + speed * v * t)
    return v


def test_rk4_against_characteristics_oracle():
    fl = flow_t1(_shallow_pair())
    g = ns.Grid(256, TWO_PI)
    init = [parse("0.1*sin(x)", ("x",), initial_data=True)]
    res = ns.run(fl, init, g, dt=1e-3, t_end=0.2, snapshot_times=[0.2])
    assert res.status == "completed"
    t, v = res.snapshots[-1]
    oracle = _characteristics_oracle(g.nodes, 0.2)
    assert np.max(np.abs(v[0] - oracle)) < 1e-6


def test_grid_refinement_is_spectral():
    fl = flow_t1(_shallow_pair())
    errs = []
    for m in (32, 64):
        g = ns.Grid(m, TWO_PI)
        init = [parse("0.1*sin(x)", ("x",), initial_data=True)]
        res = ns.run(fl, init, g, dt=5e-4, t_end=0.5, snapshot_times=[0.5])
        _, v = res.snapshots[-1]
        oracle = _characteristics_oracle(g.nodes, 0.5)
        errs.append(np.max(np.abs(v[0] - oracle)))
    assert errs[1] < errs[0] / 10


def test_rk4_against_plane_wave_oracle():
    # v_t = A v_x with constant A = [[0,1],[1,0]]: solve each Fourier mode
    # through the eigendecomposition of A
    P = _linear_pair(K=0)
    fl = flow_t1(P)
    A = np.array([[float(fl.V[i][k].evaluate({"v1": 0, "v2": 0})) for k in range(2)] for i in range(2)])
    assert np.allclose(A, [[0, 1], [1, 0]])
    g = ns.Grid(128, TWO_PI)
    x = g.nodes
    v0 = np.stack([0.1 * np.sin(x), 0.05 * np.cos(2 * x)])
    res = ns.run(fl, v0, g, dt=1e-3, t_end=0.4, snapshot_times=[0.4])
    _, v = res.snapshots[-1]
    evals, evecs = np.linalg.eig(A)
    spec = np.fft.rfft(v0, axis=1)
    k = g.wavenumbers
    coeff = np.linalg.solve(evecs, spec)
    coeff = coeff * np.exp(1j * np.outer(evals, k) * 0.4)
    oracle = np.real(np.fft.irfft(evecs @ coeff, n=g.m, axis=1))
    assert np.max(np.abs(v - oracle)) < 1e-8


def test_nan_aborts():
    fl = flow_t1(_shallow_pair())
    g = ns.Grid(64, TWO_PI)
    state = ns.FieldState(grid=g, v=0.1 * np.sin(g.nodes)[np.newaxis, :])
    cf = ns.compile_flow(fl)
    with pytest.raises(ns.SimulationError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with np.errstate(all="ignore"):
                ns.step_rk4(cf, state, 1e200, cf.rhs(g, state.v))


def test_cfl_guard_stops_the_run_before_the_step(monkeypatch):
    fl = flow_t1(_shallow_pair())
    g = ns.Grid(64, TWO_PI)
    state = ns.FieldState(grid=g, v=0.1 * np.sin(g.nodes)[np.newaxis, :])
    steps = []
    monkeypatch.setattr(ns, "step_rk4", lambda *a: steps.append(a))
    # max|V| = 3 * 0.1, so the CFL number is 1.0 * 0.3 * 64 / (2 pi)
    with pytest.raises(ns.CFLError, match=r"^CFL number 3\.056 at t=0 exceeds 1 "):
        ns.run(fl, state.v, g, dt=1.0, t_end=1.0)
    assert steps == []


def test_one_table_product_and_one_fft_per_state(monkeypatch):
    cf = ns.compile_flow(flow_t1(_linear_pair(K=1)))
    g = ns.Grid(64, TWO_PI)
    v0 = np.stack([0.05 * np.sin(g.nodes), 0.05 * np.cos(2 * g.nodes)])
    counts = {"table": 0, "rfft": 0}
    table, rfft = ns.MonomialTable.__call__, np.fft.rfft

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(ns.MonomialTable, "__call__", counted("table", table))
    monkeypatch.setattr(np.fft, "rfft", counted("rfft", rfft))
    k = 7
    res = ns.run(cf, v0, g, dt=1e-3, t_end=k * 1e-3)
    assert len(res.rows) == k + 1
    # the evaluation at each of the k + 1 states, then stages 2-4 of each step
    assert counts == {"table": 1 + 4 * k, "rfft": 1 + 4 * k}


def test_monomial_table_limit_is_checked_before_the_gather():
    vars = ("u1", "u2")
    e = parse(" + ".join(f"u1^{i}*u2^{j}" for i in range(14) for j in range(14)), vars)
    table = ns.MonomialTable([e], vars)
    m = 1 << 16
    # each variable's powers fit in the limit; the 196 x M monomial gather does not
    assert len(table.exponents) == 196
    assert 14 * m <= ns.POWER_TABLE_LIMIT < 196 * m
    with pytest.raises(ExpressionSizeError, match="a table of 196 monomials at 65536 samples"):
        table(np.zeros((2, m)))


# -- conservation ------------------------------------------------------------------


def test_conservation_scalar_flow():
    fl = flow_t1(_shallow_pair())
    g = ns.Grid(256, TWO_PI)
    cf = ns.compile_flow(fl)
    state = ns.sample_initial_data(g, [parse("0.1*sin(x)", ("x",), initial_data=True)])
    res = ns.run(cf, state.v, g, dt=1e-3, t_end=0.2)
    assert res.status == "completed"
    for entry in ns.drift_summary(cf, res.rows, state):
        assert entry.relative < 1e-8, entry


def test_conservation_two_component_nonlocal_flow():
    P = CanonicalPair(
        eta=ETA2, K=1, H=(parse("2*u1 - u2", UV), parse("u1 + 3*u2", UV)), vars=UV
    )
    fl = flow_t1(P)
    g = ns.Grid(256, TWO_PI)
    cf = ns.compile_flow(fl)
    init = [
        parse("0.05*sin(x)", ("x",), initial_data=True),
        parse("0.05*cos(x) + 0.02*sin(2*x)", ("x",), initial_data=True),
    ]
    state = ns.sample_initial_data(g, init)
    res = ns.run(cf, state.v, g, dt=1e-3, t_end=0.3)
    assert res.status == "completed"
    for entry in ns.drift_summary(cf, res.rows, state):
        assert entry.relative < 1e-8, entry


def test_dealias_option_preserves_accuracy():
    fl = flow_t1(_shallow_pair())
    g = ns.Grid(256, TWO_PI)
    cf = ns.compile_flow(fl, dealias=True)
    init = [parse("0.1*sin(x)", ("x",), initial_data=True)]
    res = ns.run(cf, init, g, dt=1e-3, t_end=0.2, snapshot_times=[0.2])
    _, v = res.snapshots[-1]
    oracle = _characteristics_oracle(g.nodes, 0.2)
    assert np.max(np.abs(v[0] - oracle)) < 1e-6


def test_conservation_second_level_flow():
    P = _shallow_pair()
    fl = flow_t2(P)
    g = ns.Grid(256, TWO_PI)
    cf = ns.compile_flow(fl)
    state = ns.sample_initial_data(g, [parse("0.1*sin(x)", ("x",), initial_data=True)])
    res = ns.run(cf, state.v, g, dt=1e-3, t_end=0.2)
    assert res.status == "completed"
    for entry in ns.drift_summary(cf, res.rows, state):
        assert entry.relative < 1e-8, entry


def test_breaking_detected():
    fl = flow_t1(_shallow_pair())
    g = ns.Grid(256, TWO_PI)
    init = [parse("0.1*sin(x)", ("x",), initial_data=True)]
    res = ns.run(fl, init, g, dt=1e-3, t_end=10.0)
    assert res.status == "breaking"
    assert res.breaking_time is not None and 1.0 < res.breaking_time < 10.0


# -- the nonlocal operator numerically ----------------------------------------------


def _random_smooth_state(grid, n, rng, amplitude=0.08):
    x = grid.nodes
    rows = []
    for _ in range(n):
        row = np.zeros_like(x)
        for mode in range(1, 4):
            row += rng.uniform(-1, 1) * amplitude / mode * np.sin(mode * x)
            row += rng.uniform(-1, 1) * amplitude / mode * np.cos(mode * x)
        rows.append(row)
    return ns.FieldState(grid=grid, v=np.stack(rows))


def test_apply_p1_numeric_matches_mean_corrected_flow():
    P = CanonicalPair(
        eta=ETA2, K=1, H=(parse("2*u1 - u2", UV), parse("u1 + 3*u2", UV)), vars=UV
    )
    fl = flow_t1(P)
    cf = ns.compile_flow(fl)
    g = ns.Grid(256, TWO_PI)
    eta_down = cf.eta_down
    rng = random.Random(31)
    K = float(P.K.const_value())
    for _ in range(3):
        state = _random_smooth_state(g, 2, rng)
        xi = np.einsum("jl,lm->jm", eta_down, state.v)
        numeric = ns.apply_P1_numeric(P, state, xi)
        symbolic = cf.rhs(g, state.v)
        s0 = 0.5 * np.einsum("jm,jl,lm->m", state.v, eta_down, state.v)
        vx = np.stack([ns.spectral_dx(g, state.v[i]) for i in range(2)])
        corrected = symbolic - K * float(np.mean(s0)) * vx
        assert np.max(np.abs(numeric - corrected)) < 1e-8


def test_apply_p1_numeric_rejects_nonzero_mean_tail():
    # a covector that is not a gradient makes v^j_x xi_j carry a mean,
    # which the nonlocal antiderivative must refuse
    P = CanonicalPair(
        eta=ETA2, K=1, H=(parse("2*u1 - u2", UV), parse("u1 + 3*u2", UV)), vars=UV
    )
    g = ns.Grid(64, TWO_PI)
    state = _random_smooth_state(g, 2, random.Random(3))
    xi = np.stack([ns.spectral_dx(g, state.v[j]) for j in range(2)])  # xi = v_x
    with pytest.raises(ns.SimulationError):
        ns.apply_P1_numeric(P, state, xi)


def test_apply_p1_numeric_zero_covector():
    P = _linear_pair(K=0)
    g = ns.Grid(64, TWO_PI)
    state = _random_smooth_state(g, 2, random.Random(5))
    out = ns.apply_P1_numeric(P, state, np.zeros_like(state.v))
    assert np.max(np.abs(out)) == 0.0


def test_apply_p1_numeric_constant_coefficient_case():
    # K = 0 with linear potentials: the operator is a constant matrix acting
    # through g1 d/dx; compare against the direct formula
    P = CanonicalPair(
        eta=ETA2, K=0, H=(parse("2*u1 - u2", UV), parse("u1 + 3*u2", UV)), vars=UV
    )
    from hydrobrackets.bracket import build_canonical

    B = build_canonical(P)
    g1 = np.array(
        [[float(B.g[i][j].evaluate({"u1": 0, "u2": 0})) for j in range(2)] for i in range(2)]
    )
    g = ns.Grid(128, TWO_PI)
    state = _random_smooth_state(g, 2, random.Random(8))
    xi = 0.3 * state.v + 0.1
    out = ns.apply_P1_numeric(P, state, xi)
    xix = np.stack([ns.spectral_dx(g, xi[j]) for j in range(2)])
    direct = np.einsum("ij,jm->im", g1, xix)
    assert np.max(np.abs(out - direct)) < 1e-12


# -- numeric commutation --------------------------------------------------------------


def test_commute_numeric_scalar_pair():
    P = _shallow_pair()
    t1, t2 = flow_t1(P), flow_t2(P)
    g = ns.Grid(128, TWO_PI)
    state = ns.FieldState(grid=g, v=0.1 * np.sin(g.nodes)[np.newaxis, :])
    cd = ns.commute_check_numeric(t1, t2, state, tau=1e-3)
    assert cd.commuting
    assert 7.0 <= cd.ratio <= 9.0


def test_commute_numeric_self_is_exact():
    P = _shallow_pair()
    t1 = flow_t1(P)
    g = ns.Grid(64, TWO_PI)
    state = ns.FieldState(grid=g, v=0.1 * np.sin(g.nodes)[np.newaxis, :])
    cd = ns.commute_check_numeric(t1, t1, state)
    assert cd.commuting and cd.defect < 1e-13


def test_commute_numeric_flags_perturbed_flow():
    P = CanonicalPair(
        eta=ETA2, K=1, H=(parse("2*u1 - u2", UV), parse("u1 + 3*u2", UV)), vars=UV
    )
    t1, t2 = flow_t1(P), flow_t2(P)
    g = ns.Grid(128, TWO_PI)
    state = _random_smooth_state(g, 2, random.Random(21))
    clean = ns.commute_check_numeric(t1, t2, state, tau=1e-3)
    assert clean.commuting and clean.ratio >= 7.0
    ct2 = ns.compile_flow(t2)
    # table row 1 is V[0][1]; monomial 0 is the constant one
    assert not ct2.table.exponents[0].any()
    ct2.table.coeffs[1, 0] += 0.1
    perturbed = ns.commute_check_numeric(ns.compile_flow(t1), ct2, state, tau=1e-3)
    assert not perturbed.commuting
    assert 3.5 <= perturbed.ratio <= 4.5


# -- CSV emission ----------------------------------------------------------------------


def test_csv_outputs(tmp_path):
    fl = flow_t1(_shallow_pair())
    g = ns.Grid(64, TWO_PI)
    cf = ns.compile_flow(fl)
    init = [parse("0.1*sin(x)", ("x",), initial_data=True)]
    res = ns.run(cf, init, g, dt=1e-2, t_end=0.05, snapshot_times=[0.0, 0.05])
    diag = tmp_path / "diag.csv"
    ns.write_diagnostics_csv(res.rows, diag)
    lines = diag.read_text().strip().split("\n")
    assert lines[0] == "t,U_1,momentum,H1,H2,max_vx,tail"
    assert len(lines) == len(res.rows) + 1
    snap = tmp_path / "snap.csv"
    ns.write_snapshot_csv(g, res.snapshots[0][1], snap)
    body = snap.read_text().strip().split("\n")
    assert body[0] == "x,v1"
    assert len(body) == g.m + 1
    # numbers round-trip through repr
    x0, v0 = body[1].split(",")
    assert float(x0) == 0.0
