"""Spectral operators, time stepping against analytic oracles, conservation,
and symbolic/numeric agreement."""

from __future__ import annotations

import itertools
import random
import threading
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrobrackets.bracket import CanonicalPair, ConstantBracket
from hydrobrackets.expr import parse
from hydrobrackets.hierarchy import hierarchy
from hydrobrackets import numsim as ns
from hydrobrackets.poly import ExpressionSizeError

import oracles
from oracles import flow_t1, flow_t2

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
    cf = ns.compile_flow(flow_t1(_shallow_pair()))
    with pytest.raises(ValueError, match=message):
        ns.run(cf, v, ns.Grid(8, 1.0), 1e-3, 1e-3)


def test_run_rejects_data_of_another_dimension():
    cf = ns.compile_flow(flow_t1(_shallow_pair()))
    with pytest.raises(ValueError, match="^initial data does not match the flow dimension$"):
        ns.run(cf, np.zeros((2, 8)), ns.Grid(8, 1.0), 1e-3, 1e-3)


def test_sample_initial_data_rejects_data_that_is_not_finite():
    grid = ns.Grid(8, TWO_PI)
    data = [parse("x", ("x",), initial_data=True), parse("1/sin(x)", ("x",), initial_data=True)]
    with pytest.raises(ValueError, match="^initial datum 2 is not finite on the grid$"):
        ns.sample_initial_data(grid, data)
    v = ns.sample_initial_data(grid, data[:1])
    assert v.shape == (1, 8) and v.dtype == float and np.array_equal(v[0], grid.nodes)


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
    assert np.max(np.abs(oracles.spectral_antidx(g, np.cos(x)) - np.sin(x))) < 1e-12


def test_spectral_antidx_zero():
    g = ns.Grid(32, 1.0)
    assert np.max(np.abs(oracles.spectral_antidx(g, np.zeros(32)))) == 0.0


def test_antidx_inverts_dx_on_mean_zero_data():
    g = ns.Grid(64, TWO_PI)
    x = g.nodes
    w = np.sin(x) + 0.3 * np.sin(3 * x) - 0.2 * np.cos(5 * x)
    back = oracles.spectral_antidx(g, ns.spectral_dx(g, w))
    assert np.max(np.abs(back - (w - w.mean()))) < 1e-12


def test_antidx_rejects_nonzero_mean():
    g = ns.Grid(32, 1.0)
    with pytest.raises(ns.SimulationError):
        oracles.spectral_antidx(g, np.ones(32))


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
    B = P._flow_pair._bracket
    exprs = [B.g[i][j] for i in range(2) for j in range(2)]
    exprs += [B.b[i][j][k] for i in range(2) for j in range(2) for k in range(2)]
    _assert_matches_exact(exprs, ("v1", "v2"), _each_compiled(exprs, ("v1", "v2")), 12, 100)


def test_a_table_holds_polynomials_only():
    # nonlinear H with a pole off [-1, 1]: the b entries carry denominators
    P = CanonicalPair(
        eta=ETA2, K=1, H=(parse("1/(2 + u1) + u2^2/2", UV), parse("u1*u2", UV)), vars=UV
    )
    B = P._flow_pair._bracket
    exprs = [B.b[i][j][k] for i in range(2) for j in range(2) for k in range(2)]
    assert any(not e.is_poly() for e in exprs)
    with pytest.raises(ValueError, match="polynomials only"):
        ns.MonomialTable(exprs, ("v1", "v2"))


def test_rational_initial_data_matches_exact_evaluation():
    # sampled from its parse tree, against the exact rational function
    text = "x/(3 + x)^2 + 1/(2 + x^2)"
    e = parse(text, ("x",))
    assert len(e.den) == 2
    grid = ns.Grid(64, TWO_PI)
    row = ns.sample_initial_data(grid, [parse(text, ("x",), initial_data=True)])[0]
    for x, got in zip(grid.nodes, row):
        exact = float(e.evaluate({"x": Fraction(float(x))}))
        assert abs(got - exact) <= 1e-12 * abs(exact)


def _assert_samples_as_numpy(text, want):
    grid = ns.Grid(64, TWO_PI)
    row = ns.sample_initial_data(grid, [parse(text, ("x",), initial_data=True)])[0]
    assert np.max(np.abs(row / want(grid.nodes) - 1.0)) <= 1e-13, text


@pytest.mark.parametrize(
    "text,want",
    [
        # expanded, the numerator loses its value to cancellation near x = 7
        ("((x-7)/7)^30", lambda x: ((x - 7.0) / 7.0) ** 30),
        # expanded, its terms overflow and meet zeros: 0*inf on the grid
        ("(1+x/100000)^500", lambda x: (1.0 + x / 100000.0) ** 500),
    ],
    ids=["clustered-roots", "power-of-a-sum"],
)
def test_a_numerator_is_sampled_as_written(text, want):
    _assert_samples_as_numpy(text, want)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(st.integers(1000, 10**7), st.integers(1, 3000))
def test_a_power_of_a_sum_is_sampled_as_written(q, k):
    _assert_samples_as_numpy(f"(1 + x/{q})^{k}", lambda x: (1.0 + x / float(q)) ** k)


def test_a_divisor_is_sampled_factor_by_factor():
    # expanded, (x-7)^30 loses its value to cancellation on [0, 2 pi)
    grid = ns.Grid(64, TWO_PI)
    x = grid.nodes
    for text, want in [
        ("1/(x-7)^30", (x - 7.0) ** -30),
        ("1/((x+4)*(x^2+1))", 1.0 / ((x + 4.0) * (x * x + 1.0))),
    ]:
        row = ns.sample_initial_data(grid, [parse(text, ("x",), initial_data=True)])[0]
        assert np.max(np.abs(row / want - 1.0)) <= 1e-13, text


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
        # the V table, which stages 2-4 of a step evaluate
        _assert_matches_exact(entries[: n * n], fl.vars, cf.v_table, 50 + fl.level)


def test_compile_rejects_unbound_parameters():
    e = parse("c1*u1", ("u1", "c1"))
    with pytest.raises(ValueError):
        ns.MonomialTable([e.rename({"u1": "v1"})], ("v1",))


# -- stepping oracles --------------------------------------------------------------


def test_step_zero_field_stays_zero():
    fl = flow_t1(_shallow_pair())
    g = ns.Grid(64, TWO_PI)
    v = np.zeros((1, 64))
    cf = ns.compile_flow(fl)
    out = ns.step_rk4(cf, g, v, 0.0, 1e-2, cf.rhs(g, v))
    assert np.all(out == 0.0)


def test_constant_field_is_steady():
    fl = flow_t1(_shallow_pair())
    g = ns.Grid(64, TWO_PI)
    res = ns.run(ns.compile_flow(fl), np.full((1, 64), 0.7), g, dt=1e-3, t_end=0.1)
    assert res.status == "completed"
    final = dict(zip(res.columns, res.rows[-1]))
    assert abs(final["U_1"] - 0.7 * TWO_PI) < 1e-12
    assert final["max_vx"] < 1e-12


def _characteristics_oracle(x, t, amplitude=0.1, speed=3.0, iters=60):
    v = amplitude * np.sin(x)
    for _ in range(iters):
        v = amplitude * np.sin(x + speed * v * t)
    return v


def test_rk4_against_characteristics_oracle():
    fl = flow_t1(_shallow_pair())
    g = ns.Grid(256, TWO_PI)
    v0 = ns.sample_initial_data(g, [parse("0.1*sin(x)", ("x",), initial_data=True)])
    res = ns.run(ns.compile_flow(fl), v0, g, dt=1e-3, t_end=0.2, snapshot_times=[0.2])
    assert res.status == "completed"
    t, v = res.snapshots[-1]
    oracle = _characteristics_oracle(g.nodes, 0.2)
    assert np.max(np.abs(v[0] - oracle)) < 1e-6


def test_grid_refinement_is_spectral():
    fl = flow_t1(_shallow_pair())
    errs = []
    for m in (32, 64):
        g = ns.Grid(m, TWO_PI)
        v0 = ns.sample_initial_data(g, [parse("0.1*sin(x)", ("x",), initial_data=True)])
        res = ns.run(ns.compile_flow(fl), v0, g, dt=5e-4, t_end=0.5, snapshot_times=[0.5])
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
    res = ns.run(ns.compile_flow(fl), v0, g, dt=1e-3, t_end=0.4, snapshot_times=[0.4])
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
    v = 0.1 * np.sin(g.nodes)[np.newaxis, :]
    cf = ns.compile_flow(fl)
    with pytest.raises(ns.SimulationError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with np.errstate(all="ignore"):
                ns.step_rk4(cf, g, v, 0.0, 1e200, cf.rhs(g, v))


def test_cfl_guard_stops_the_run_before_the_step(monkeypatch):
    fl = flow_t1(_shallow_pair())
    g = ns.Grid(64, TWO_PI)
    v = 0.1 * np.sin(g.nodes)[np.newaxis, :]
    steps = []
    monkeypatch.setattr(ns, "step_rk4", lambda *a: steps.append(a))
    # max|V| = 3 * 0.1, so the CFL number is 1.0 * 0.3 * 64 / (2 pi)
    with pytest.raises(ns.CFLError, match=r"^CFL number 3\.056 at t=0 exceeds 1 "):
        ns.run(ns.compile_flow(fl), v, g, dt=1.0, t_end=1.0)
    assert steps == []


def test_a_run_takes_t_end_over_dt_steps_and_no_sliver(monkeypatch):
    # after 1e5 steps of 1e-5 the summed t falls short of t_end = 1 by about
    # 2e-12, more than 1e-12 * t_end but within the summed rounding: the run
    # must end there, not take one more step of that length
    cflow = types.SimpleNamespace(n=1, gershgorin_max=lambda V: 0.0, rhs_from=lambda *a: None)
    monkeypatch.setattr(ns, "step_rk4", lambda cflow, grid, v, t, dt, k1: v)
    monkeypatch.setattr(ns, "_evaluate", lambda cflow, grid, v, t: ([t, 0.0, 0.0], None, None))
    res = ns.run(cflow, np.zeros((1, 8)), ns.Grid(8, TWO_PI), dt=1e-5, t_end=1.0)
    # the summed t, kept as it is: 0.9999999999980838 at the end
    assert [row[0] for row in res.rows] == [0.0, *itertools.accumulate([1e-5] * 100_000)]
    assert res.rows[-1][0] != 1.0
    assert res.status == "completed"


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


def test_one_table_evaluates_from_two_threads():
    cf, _, _ = _step_case("pair", 3, 256, False)
    rng = np.random.default_rng(11)
    stacks = [0.05 * rng.standard_normal((2, 1 << 14)) for _ in range(2)]
    want = [cf.table(s) for s in stacks]
    mismatches = [0, 0]
    start = threading.Barrier(2)

    def evaluate(k):
        start.wait()
        for _ in range(200):
            mismatches[k] += not np.array_equal(cf.table(stacks[k]), want[k])

    threads = [threading.Thread(target=evaluate, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert mismatches == [0, 0]


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
    v0 = ns.sample_initial_data(g, [parse("0.1*sin(x)", ("x",), initial_data=True)])
    res = ns.run(cf, v0, g, dt=1e-3, t_end=0.2)
    assert res.status == "completed"
    for entry in ns.drift_summary(cf, res.rows, g, v0):
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
    v0 = ns.sample_initial_data(g, init)
    res = ns.run(cf, v0, g, dt=1e-3, t_end=0.3)
    assert res.status == "completed"
    for entry in ns.drift_summary(cf, res.rows, g, v0):
        assert entry.relative < 1e-8, entry


def test_dealias_option_preserves_accuracy():
    fl = flow_t1(_shallow_pair())
    g = ns.Grid(256, TWO_PI)
    cf = ns.compile_flow(fl, dealias=True)
    v0 = ns.sample_initial_data(g, [parse("0.1*sin(x)", ("x",), initial_data=True)])
    res = ns.run(cf, v0, g, dt=1e-3, t_end=0.2, snapshot_times=[0.2])
    _, v = res.snapshots[-1]
    oracle = _characteristics_oracle(g.nodes, 0.2)
    assert np.max(np.abs(v[0] - oracle)) < 1e-6


def test_conservation_second_level_flow():
    P = _shallow_pair()
    fl = flow_t2(P)
    g = ns.Grid(256, TWO_PI)
    cf = ns.compile_flow(fl)
    v0 = ns.sample_initial_data(g, [parse("0.1*sin(x)", ("x",), initial_data=True)])
    res = ns.run(cf, v0, g, dt=1e-3, t_end=0.2)
    assert res.status == "completed"
    for entry in ns.drift_summary(cf, res.rows, g, v0):
        assert entry.relative < 1e-8, entry


def test_breaking_detected():
    fl = flow_t1(_shallow_pair())
    g = ns.Grid(256, TWO_PI)
    v0 = ns.sample_initial_data(g, [parse("0.1*sin(x)", ("x",), initial_data=True)])
    res = ns.run(ns.compile_flow(fl), v0, g, dt=1e-3, t_end=10.0)
    assert res.status == "breaking"
    assert res.breaking_time is not None and 1.0 < res.breaking_time < 10.0
    # the run stops at the first row whose max|v_x| exceeds 50x the initial one
    max_vx = [row[res.columns.index("max_vx")] for row in res.rows]
    assert res.rows[-1][0] == res.breaking_time
    assert max_vx[-1] > ns.BREAKING_FACTOR * max_vx[0] >= max(max_vx[:-1])


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
    return np.stack(rows)


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
        v = _random_smooth_state(g, 2, rng)
        xi = np.einsum("jl,lm->jm", eta_down, v)
        numeric = oracles.apply_P1_numeric(P, g, v, xi)
        symbolic = cf.rhs(g, v)
        s0 = 0.5 * np.einsum("jm,jl,lm->m", v, eta_down, v)
        vx = np.stack([ns.spectral_dx(g, v[i]) for i in range(2)])
        corrected = symbolic - K * float(np.mean(s0)) * vx
        assert np.max(np.abs(numeric - corrected)) < 1e-8


def test_apply_p1_numeric_rejects_nonzero_mean_tail():
    # a covector that is not a gradient makes v^j_x xi_j carry a mean,
    # which the nonlocal antiderivative must refuse
    P = CanonicalPair(
        eta=ETA2, K=1, H=(parse("2*u1 - u2", UV), parse("u1 + 3*u2", UV)), vars=UV
    )
    g = ns.Grid(64, TWO_PI)
    v = _random_smooth_state(g, 2, random.Random(3))
    xi = np.stack([ns.spectral_dx(g, v[j]) for j in range(2)])  # xi = v_x
    with pytest.raises(ns.SimulationError):
        oracles.apply_P1_numeric(P, g, v, xi)


def test_apply_p1_numeric_zero_covector():
    P = _linear_pair(K=0)
    g = ns.Grid(64, TWO_PI)
    v = _random_smooth_state(g, 2, random.Random(5))
    out = oracles.apply_P1_numeric(P, g, v, np.zeros_like(v))
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
    v = _random_smooth_state(g, 2, random.Random(8))
    xi = 0.3 * v + 0.1
    out = oracles.apply_P1_numeric(P, g, v, xi)
    xix = np.stack([ns.spectral_dx(g, xi[j]) for j in range(2)])
    direct = np.einsum("ij,jm->im", g1, xix)
    assert np.max(np.abs(out - direct)) < 1e-12


# -- numeric commutation --------------------------------------------------------------


def test_commute_numeric_scalar_pair():
    P = _shallow_pair()
    t1, t2 = ns.compile_flow(flow_t1(P)), ns.compile_flow(flow_t2(P))
    g = ns.Grid(128, TWO_PI)
    v = 0.1 * np.sin(g.nodes)[np.newaxis, :]
    cd = ns.commute_check_numeric(t1, t2, g, v)
    assert cd.commuting
    assert 7.0 <= cd.ratio <= 9.0


def test_commute_numeric_self_is_exact():
    P = _shallow_pair()
    t1 = ns.compile_flow(flow_t1(P))
    g = ns.Grid(64, TWO_PI)
    v = 0.1 * np.sin(g.nodes)[np.newaxis, :]
    cd = ns.commute_check_numeric(t1, t1, g, v)
    assert cd.commuting and cd.defect < 1e-13


def test_commute_numeric_flags_perturbed_flow():
    P = CanonicalPair(
        eta=ETA2, K=1, H=(parse("2*u1 - u2", UV), parse("u1 + 3*u2", UV)), vars=UV
    )
    t1, t2 = ns.compile_flow(flow_t1(P)), ns.compile_flow(flow_t2(P))
    g = ns.Grid(128, TWO_PI)
    v = _random_smooth_state(g, 2, random.Random(21))
    clean = ns.commute_check_numeric(t1, t2, g, v)
    assert clean.commuting and clean.ratio >= 7.0
    # the probe's steps read the V table: row 1 is V[0][1]; monomial 0 is the constant one
    assert not t2.v_table.exponents[0].any()
    t2.v_table.coeffs[1, 0] += 0.1
    perturbed = ns.commute_check_numeric(t1, t2, g, v)
    assert not perturbed.commuting
    assert 3.5 <= perturbed.ratio <= 4.5


# -- the step loop against per-density and fresh-table references ----------------------
#
# The diagnostics take every integral from one row sum over a stacked array,
# and a monomial table gathers its monomials from a fixed power plan.  The
# references below are the direct forms: one np.mean per tracked density, and
# powers formed from the exponent columns at every call.  Every value must be
# float-equal, not close.


def _mean_route_row(cflow, grid, t, v):
    """The diagnostics row of the state v at t, one np.mean per density:
    [t, U_1 .. U_n, momentum, H1, H2, max|v_x|, tail]."""
    S = cflow.table(v)[-1]
    quad = 0.5 * np.einsum("jm,jl,lm->m", v, cflow.eta_down, v)
    densities = [v[i] for i in range(cflow.n)] + [quad, quad, S]
    integrals = [float(np.mean(d) * grid.length) for d in densities]
    spec = np.fft.rfft(v)
    power = np.abs(spec) ** 2
    totals = np.sum(power, axis=1)
    tails = np.sum(power[:, (2 * (grid.m // 2)) // 3 :], axis=1)
    tail = max(
        (float(np.sqrt(t / total)) for t, total in zip(tails, totals) if total > 0),
        default=0.0,
    )
    return [t, *integrals, float(np.max(np.abs(ns.spectral_dx(grid, v)))), tail]


def _mean_route_drift(cflow, rows, grid, v0):
    S = cflow.table(v0)[-1]
    quad = 0.5 * np.einsum("jm,jl,lm->m", v0, cflow.eta_down, v0)
    densities = [(f"U_{i + 1}", v0[i]) for i in range(cflow.n)]
    densities += [("momentum", quad), ("H1", quad), ("H2", S)]
    out = []
    for column, (name, density) in enumerate(densities, start=1):
        vals = [r[column] for r in rows]
        scale = float(np.mean(np.abs(density)) * grid.length)
        out.append((name, vals[0], max(abs(x - vals[0]) for x in vals) / max(scale, 1e-30)))
    return out


def _fresh_monomials(table, stack):
    """Every monomial of the table, with every power table allocated anew."""
    terms = len(table.exponents)
    out = None
    for i in range(stack.shape[0]):
        column = np.ascontiguousarray(table.exponents[:, i])
        if not column.any():
            continue
        powers = np.empty((column.max() + 1, stack.shape[1]))
        powers[0] = 1.0
        powers[1] = stack[i]
        for e in range(2, len(powers)):
            np.multiply(powers[e - 1], stack[i], out=powers[e])
        if out is None:
            out = powers[column]
        else:
            out *= powers[column]
    return np.ones((terms, stack.shape[1])) if out is None else out


_HOPF = ("hopf", 1)
_PAIR = ("pair", 2)
_STEP_CASES = [
    pytest.param(kind, level, m, False, id=f"{kind}-l{level}-m{m}")
    for kind, _ in (_HOPF, _PAIR)
    for level in (1, 2, 3)
    for m in (256, 512)
] + [
    pytest.param("hopf", 1, 256, True, id="hopf-l1-m256-dealias"),
]


def _step_case(kind, level, m, dealias):
    grid = ns.Grid(m, TWO_PI)
    x = grid.nodes
    if kind == "hopf":
        P, v0 = _shallow_pair(), (0.1 * np.sin(x))[np.newaxis, :]
    else:
        P = CanonicalPair(
            eta=ETA2, K=1, H=(parse("2*u1 - u2", UV), parse("u1 + 3*u2", UV)), vars=UV
        )
        v0 = np.stack([0.05 * np.sin(x), 0.05 * np.cos(x) + 0.02 * np.sin(2 * x)])
    return ns.compile_flow(hierarchy(P, level)[level], dealias=dealias), grid, v0


@pytest.mark.parametrize("kind,level,m,dealias", _STEP_CASES)
def test_run_rows_equal_the_per_density_mean_route(kind, level, m, dealias):
    cf, grid, v0 = _step_case(kind, level, m, dealias)
    n = cf.n
    V0 = cf.v_table(v0).reshape(n, n, -1)
    dt = 0.2 * grid.length / (grid.m * cf.gershgorin_max(V0))  # CFL number 0.2
    steps = 12
    res = ns.run(cf, v0, grid, dt, steps * dt, [k * dt for k in range(steps + 1)])
    assert res.status == "completed"
    assert len(res.rows) == len(res.snapshots) == steps + 1
    assert res.columns == ("t", *(f"U_{i + 1}" for i in range(n)), "momentum", "H1", "H2", "max_vx", "tail")
    for row, (t, v) in zip(res.rows, res.snapshots):
        assert len(row) == len(res.columns) and all(type(x) is float for x in row)
        assert row == _mean_route_row(cf, grid, t, v)
        for table in (cf.v_table, cf.table):
            assert np.array_equal(table.monomials(v), _fresh_monomials(table, v))
    got = [(d.name, d.initial, d.relative) for d in ns.drift_summary(cf, res.rows, grid, v0)]
    assert got == _mean_route_drift(cf, res.rows, grid, v0)


def test_monomial_table_values_follow_the_grid_size():
    vars = UV
    table = ns.MonomialTable([parse("u1^3*u2 - u2^2", vars), parse("u1", vars)], vars)
    rng = np.random.default_rng(5)
    for m in (16, 32, 16, 64, 32):
        stack = rng.standard_normal((2, m))
        assert np.array_equal(table.monomials(stack), _fresh_monomials(table, stack))


def test_step_returns_the_state_it_checked():
    cf, grid, v0 = _step_case("pair", 1, 256, False)
    k1 = cf.rhs(grid, v0)
    new = ns.step_rk4(cf, grid, v0, 0.0, 1e-4, k1)
    assert new.shape == v0.shape and np.all(np.isfinite(new))
    k1[0, 0] = np.nan
    with pytest.raises(ns.SimulationError, match="^non-finite state at t = 0.0001$"):
        ns.step_rk4(cf, grid, v0, 0.0, 1e-4, k1)


# -- CSV emission ----------------------------------------------------------------------


def _float_per_cell_csvs(grid, columns, rows, v):
    """The CSV texts written with one float() and repr() per cell."""
    diag = [",".join(columns)]
    for r in rows:
        diag.append(",".join(repr(float(x)) for x in r))
    n = v.shape[0]
    snap = ["x," + ",".join(f"v{i + 1}" for i in range(n))]
    for m, x in enumerate(grid.nodes):
        snap.append(",".join([repr(float(x))] + [repr(float(v[i][m])) for i in range(n)]))
    return "\n".join(diag) + "\n", "\n".join(snap) + "\n"


@pytest.mark.parametrize("kind", ["hopf", "pair"])
def test_csv_bytes_equal_the_float_per_cell_writers(tmp_path, kind):
    cf, grid, v0 = _step_case(kind, 2, 256, False)
    res = ns.run(cf, v0, grid, 1e-5, 5e-5, [5e-5])
    ns.write_diagnostics_csv(res.columns, res.rows, tmp_path / "diag.csv")
    ns.write_snapshot_csv(grid, res.snapshots[-1][1], tmp_path / "snap.csv")
    diag, snap = _float_per_cell_csvs(grid, res.columns, res.rows, res.snapshots[-1][1])
    assert (tmp_path / "diag.csv").read_text() == diag
    assert (tmp_path / "snap.csv").read_text() == snap


def test_csv_outputs(tmp_path):
    fl = flow_t1(_shallow_pair())
    g = ns.Grid(64, TWO_PI)
    cf = ns.compile_flow(fl)
    v0 = ns.sample_initial_data(g, [parse("0.1*sin(x)", ("x",), initial_data=True)])
    res = ns.run(cf, v0, g, dt=1e-2, t_end=0.05, snapshot_times=[0.0, 0.05])
    diag = tmp_path / "diag.csv"
    ns.write_diagnostics_csv(res.columns, res.rows, diag)
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


def test_diagnostics_csv_text_of_a_fixed_table(tmp_path):
    columns = ("t", "U_1", "momentum", "H1", "H2", "max_vx", "tail")
    rows = [
        [0.0, 0.1, 1 / 3, 1 / 3, -2.5e-17, 0.1, 0.0],
        [0.001, 0.1, 0.3333333333333333, 1e300, 5e-324, 0.30000000000000004, 1.5e-07],
    ]
    ns.write_diagnostics_csv(columns, rows, tmp_path / "diag.csv")
    assert (tmp_path / "diag.csv").read_text() == (
        "t,U_1,momentum,H1,H2,max_vx,tail\n"
        "0.0,0.1,0.3333333333333333,0.3333333333333333,-2.5e-17,0.1,0.0\n"
        "0.001,0.1,0.3333333333333333,1e+300,5e-324,0.30000000000000004,1.5e-07\n"
    )


@pytest.mark.parametrize(
    "times,want",
    [([0.1, 0.1], [0.1]), ([0.1, 0.104], [0.1]), ([0.0, 0.1, 0.1, 0.2], [0.0, 0.1, 0.2]), ([], [])],
)
def test_one_snapshot_per_step(times, want):
    cf = ns.compile_flow(flow_t1(_shallow_pair()))
    g = ns.Grid(64, TWO_PI)
    v0 = 0.1 * np.sin(g.nodes)[np.newaxis, :]
    res = ns.run(cf, v0, g, dt=1e-2, t_end=0.2, snapshot_times=times)
    got = [t for t, _ in res.snapshots]
    assert got == pytest.approx(want, abs=1e-12)
    # each snapshot is the field of one step, taken once
    assert set(got) <= {row[0] for row in res.rows} and len(set(got)) == len(got)
