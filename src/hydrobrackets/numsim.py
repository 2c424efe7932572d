"""Pseudo-spectral integration of conservative hydrodynamic flows on a
periodic domain, with conservation diagnostics and numeric cross-checks of
the symbolic machinery.

The inverse derivative (d/dx)^{-1} is realized as the unique mean-zero
periodic antiderivative (zero Fourier mode set to zero).  It therefore
differs from the symbolic antiderivative convention S(v), S(0)=0, by the
spatial mean of S; numeric/symbolic comparisons apply that constant
correction explicitly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bracket import CanonicalPair
from .expr import Expr
from .hierarchy import ConservativeFlow, flow_vars

__all__ = [
    "Grid",
    "FieldState",
    "DiagnosticsRow",
    "RunResult",
    "CompiledFlow",
    "SimulationError",
    "CFLWarning",
    "SpectralTailWarning",
    "spectral_dx",
    "spectral_antidx",
    "compile_expr",
    "compile_flow",
    "sample_initial_data",
    "apply_P1_numeric",
    "step_rk4",
    "run",
    "commute_check_numeric",
    "write_diagnostics_csv",
    "write_snapshot_csv",
]


class SimulationError(RuntimeError):
    pass


class CFLWarning(UserWarning):
    pass


class SpectralTailWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: m points (power of two, >= 8) on [0, length)."""

    m: int
    length: float

    def __post_init__(self):
        if self.m < 8 or (self.m & (self.m - 1)) != 0:
            raise ValueError("grid size must be a power of two, at least 8")
        if not self.length > 0:
            raise ValueError("period length must be positive")

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.m) * (self.length / self.m)

    @property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi / self.length * np.arange(self.m // 2 + 1)


@dataclass
class FieldState:
    grid: Grid
    v: np.ndarray  # shape (N, M)
    t: float = 0.0

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        if self.v.ndim != 2 or self.v.shape[1] != self.grid.m:
            raise ValueError("field array must have shape (N, M)")
        if not np.all(np.isfinite(self.v)):
            raise ValueError("field values must be finite")

    @property
    def n(self) -> int:
        return self.v.shape[0]


def spectral_dx(grid: Grid, s: np.ndarray) -> np.ndarray:
    """Fourier differentiation; exact for band-limited data."""
    spec = np.fft.rfft(s)
    spec *= 1j * grid.wavenumbers
    spec[-1] = 0.0  # Nyquist mode carries no odd derivative
    return np.fft.irfft(spec, n=grid.m)


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


# ---------------------------------------------------------------------------
# compiling exact expressions into array evaluators
# ---------------------------------------------------------------------------


def compile_expr(e: Expr, var_order: Sequence[str]) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression into a vectorized evaluator over a stacked
    array of variable samples (one row per variable in ``var_order``).

    The compiled accumulation order mirrors exact evaluation term by term,
    so both paths agree to roundoff.
    """
    index = {name: i for i, name in enumerate(var_order)}
    missing = e.free_vars() - set(var_order)
    if missing:
        raise ValueError(f"expression has unbound variables {sorted(missing)}")

    if e.is_rational:
        rf = e.rational

        def poly_terms(p):
            return [
                (float(c), tuple((index[v], exp) for v, exp in m))
                for m, c in p.sorted_terms()
            ]

        num_terms = poly_terms(rf.num)
        den_parts = [(poly_terms(f), exp) for f, exp in rf.den]

        def evaluate(stack: np.ndarray) -> np.ndarray:
            shape = stack.shape[1:]

            def poly_eval(terms):
                acc = np.zeros(shape)
                for c, mono in terms:
                    t = np.full(shape, c)
                    for vi, exp in mono:
                        t = t * stack[vi] ** exp
                    acc = acc + t
                return acc

            out = poly_eval(num_terms)
            for terms, exp in den_parts:
                out = out / poly_eval(terms) ** exp
            return out

        return evaluate

    # transcendental tree: close over a recursive array evaluator
    from . import expr as _expr

    def compile_node(node):
        if isinstance(node, _expr._Const):
            c = float(node.value)
            return lambda stack: np.full(stack.shape[1:], c)
        if isinstance(node, _expr._Var):
            i = index[node.name]
            return lambda stack: stack[i]
        if isinstance(node, _expr._Add):
            fns = [compile_node(a) for a in node.args]
            return lambda stack: sum(f(stack) for f in fns)
        if isinstance(node, _expr._Mul):
            fns = [compile_node(a) for a in node.args]

            def mul(stack):
                out = fns[0](stack)
                for f in fns[1:]:
                    out = out * f(stack)
                return out

            return mul
        if isinstance(node, _expr._Pow):
            f = compile_node(node.base)
            exp = node.exp
            return lambda stack: f(stack) ** exp
        if isinstance(node, _expr._Div):
            fn, fd = compile_node(node.num), compile_node(node.den)
            return lambda stack: fn(stack) / fd(stack)
        if isinstance(node, _expr._Call):
            f = compile_node(node.arg)
            op = {"sin": np.sin, "cos": np.cos, "exp": np.exp}[node.fn]
            return lambda stack: op(f(stack))
        raise TypeError(node)

    return compile_node(e._as_tree())


def dealias_two_thirds(grid: Grid, s: np.ndarray) -> np.ndarray:
    """Zero the top third of the spectrum (classical 2/3 rule)."""
    spec = np.fft.rfft(s)
    spec[(2 * (grid.m // 2)) // 3 :] = 0.0
    return np.fft.irfft(spec, n=grid.m)


@dataclass
class CompiledFlow:
    """A conservative flow compiled into fast array evaluators."""

    n: int
    vars: tuple
    V: list  # n x n callables
    S: Callable
    eta_down: np.ndarray
    source: ConservativeFlow | None = None
    dealias: bool = False

    def rhs(self, grid: Grid, v: np.ndarray) -> np.ndarray:
        vx = np.stack([spectral_dx(grid, v[k]) for k in range(self.n)])
        out = np.zeros_like(v)
        for i in range(self.n):
            acc = np.zeros(v.shape[1])
            for k in range(self.n):
                acc += self.V[i][k](v) * vx[k]
            out[i] = dealias_two_thirds(grid, acc) if self.dealias else acc
        return out

    def gershgorin_max(self, v: np.ndarray) -> float:
        worst = 0.0
        for i in range(self.n):
            acc = np.zeros(v.shape[1])
            for k in range(self.n):
                acc += np.abs(self.V[i][k](v))
            worst = max(worst, float(np.max(acc)))
        return worst


def compile_flow(flow: ConservativeFlow, dealias: bool = False) -> CompiledFlow:
    n = flow.n
    V = [[compile_expr(flow.V[i][k], flow.vars) for k in range(n)] for i in range(n)]
    S = compile_expr(flow.S, flow.vars)
    eta_down = np.array([[float(x) for x in row] for row in flow.eta.down])
    return CompiledFlow(
        n=n, vars=flow.vars, V=V, S=S, eta_down=eta_down, source=flow, dealias=dealias
    )


def sample_initial_data(
    grid: Grid, initial: Sequence[Expr]
) -> FieldState:
    """Evaluate initial-data expressions in x on the grid nodes."""
    stack = grid.nodes[np.newaxis, :]
    rows = []
    for e in initial:
        fn = compile_expr(e, ("x",))
        rows.append(fn(stack))
    return FieldState(grid=grid, v=np.stack(rows), t=0.0)


# ---------------------------------------------------------------------------
# the nonlocal operator, numerically
# ---------------------------------------------------------------------------


def apply_P1_numeric(
    P: CanonicalPair, state: FieldState, xi: np.ndarray
) -> np.ndarray:
    """Apply the nonlocal operator of the pair to a sampled covector field:
    g1^{ij}(v) (xi_j)_x + b1^{ij}_k v^k_x xi_j + K v^i_x (d/dx)^{-1}(v^j_x xi_j).

    The antiderivative uses the mean-zero convention, so against the
    symbolic route the result differs by K (mean S) v_x when xi = grad S.
    """
    n = P.n
    vars = flow_vars(n)
    B = P._flow_bracket
    if not B.K.is_const():
        raise ValueError("numeric application needs a numeric nonlocal constant")
    K = float(B.K.const_value())
    grid = state.grid
    v = state.v
    xi = np.asarray(xi, dtype=float)
    if xi.shape != v.shape:
        raise ValueError("covector field must match the state shape")
    g_fns = [[compile_expr(B.g[i][j], vars) for j in range(n)] for i in range(n)]
    b_fns = [
        [[compile_expr(B.b[i][j][k], vars) for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    vx = np.stack([spectral_dx(grid, v[k]) for k in range(n)])
    xix = np.stack([spectral_dx(grid, xi[j]) for j in range(n)])
    w = np.sum(vx * xi, axis=0)
    tail = spectral_antidx(grid, w)
    out = np.zeros_like(v)
    for i in range(n):
        acc = K * vx[i] * tail
        for j in range(n):
            acc = acc + g_fns[i][j](v) * xix[j]
            for k in range(n):
                acc = acc + b_fns[i][j][k](v) * vx[k] * xi[j]
        out[i] = acc
    if not np.all(np.isfinite(out)):
        raise SimulationError("nonlocal operator produced non-finite values")
    return out


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


def step_rk4(
    cflow: CompiledFlow, state: FieldState, dt: float, warn_cfl: bool = True
) -> FieldState:
    """Classical four-stage explicit step of v_t = V(v) v_x."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = state.grid
    v = state.v
    if warn_cfl:
        lam = cflow.gershgorin_max(v)
        if dt * lam * grid.m / grid.length >= 1.0:
            warnings.warn(
                f"CFL guard exceeded: dt*|V|*M/L = {dt * lam * grid.m / grid.length:.3f}",
                CFLWarning,
                stacklevel=2,
            )
    k1 = cflow.rhs(grid, v)
    k2 = cflow.rhs(grid, v + 0.5 * dt * k1)
    k3 = cflow.rhs(grid, v + 0.5 * dt * k2)
    k4 = cflow.rhs(grid, v + dt * k3)
    vn = v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(vn)):
        raise SimulationError(f"non-finite state at t = {state.t + dt:.6g}")
    return FieldState(grid=grid, v=vn, t=state.t + dt)


@dataclass
class DiagnosticsRow:
    t: float
    means: tuple  # annihilator functionals: integrals of v^i
    momentum: float
    h1: float
    h2: float
    max_vx: float
    tail: float


@dataclass
class RunResult:
    rows: list
    snapshots: list  # (time, array copy)
    status: str  # "completed" | "breaking"
    breaking_time: float | None = None
    messages: list = field(default_factory=list)


def _diagnostics(cflow: CompiledFlow, state: FieldState) -> DiagnosticsRow:
    grid = state.grid
    v = state.v
    L = grid.length
    means = tuple(float(np.mean(v[i]) * L) for i in range(cflow.n))
    quad = 0.5 * np.einsum("jm,jl,lm->m", v, cflow.eta_down, v)
    momentum = float(np.mean(quad) * L)
    h2 = float(np.mean(cflow.S(v)) * L)
    vx = np.stack([spectral_dx(grid, v[i]) for i in range(cflow.n)])
    max_vx = float(np.max(np.abs(vx))) if vx.size else 0.0
    tail = 0.0
    cutoff = (2 * (grid.m // 2)) // 3
    for i in range(cflow.n):
        spec = np.abs(np.fft.rfft(v[i])) ** 2
        total = float(np.sum(spec))
        if total > 0:
            tail = max(tail, float(np.sqrt(np.sum(spec[cutoff:]) / total)))
    return DiagnosticsRow(
        t=state.t,
        means=means,
        momentum=momentum,
        h1=momentum,
        h2=h2,
        max_vx=max_vx,
        tail=tail,
    )


def run(
    flow: ConservativeFlow | CompiledFlow,
    initial: Sequence[Expr] | np.ndarray,
    grid: Grid,
    dt: float,
    t_end: float,
    snapshot_times: Sequence[float] = (),
    breaking_factor: float = 50.0,
    tail_threshold: float = 1e-6,
) -> RunResult:
    """Evolve the flow, recording diagnostics every step.

    Aborts with status ``"breaking"`` once max|v_x| exceeds
    ``breaking_factor`` times its initial value (gradient catastrophe);
    a resolution-loss warning is recorded when the spectral tail fraction
    crosses ``tail_threshold``.
    """
    cflow = flow if isinstance(flow, CompiledFlow) else compile_flow(flow)
    if isinstance(initial, np.ndarray):
        state = FieldState(grid=grid, v=np.array(initial, dtype=float), t=0.0)
    else:
        state = sample_initial_data(grid, initial)
    if state.n != cflow.n:
        raise ValueError("initial data does not match the flow dimension")

    rows = [_diagnostics(cflow, state)]
    initial_maxvx = rows[0].max_vx
    amplitude = float(np.max(np.abs(state.v))) if state.v.size else 0.0
    monitor_breaking = initial_maxvx > 1e-13 * (1.0 + amplitude)
    messages: list = []
    snapshots = []
    pending = sorted(snapshot_times)

    def take_snapshots(current: FieldState):
        while pending and pending[0] <= current.t + dt / 2:
            snapshots.append((current.t, current.v.copy()))
            pending.pop(0)

    take_snapshots(state)
    warned_tail = False
    warned_cfl = False
    eps = 1e-12 * max(1.0, abs(t_end))
    while state.t < t_end - eps:
        step = min(dt, t_end - state.t)
        lam = cflow.gershgorin_max(state.v)
        if not warned_cfl and step * lam * grid.m / grid.length >= 1.0:
            msg = (
                f"CFL guard exceeded at t={state.t:.6g}: "
                f"dt*|V|*M/L = {step * lam * grid.m / grid.length:.3f}"
            )
            warnings.warn(msg, CFLWarning, stacklevel=2)
            messages.append(msg)
            warned_cfl = True
        state = step_rk4(cflow, state, step, warn_cfl=False)
        row = _diagnostics(cflow, state)
        rows.append(row)
        take_snapshots(state)
        if not warned_tail and row.tail > tail_threshold:
            msg = (
                f"spectral tail fraction {row.tail:.3e} exceeds "
                f"{tail_threshold:.1e} at t={state.t:.6g}; resolution loss"
            )
            warnings.warn(msg, SpectralTailWarning, stacklevel=2)
            messages.append(msg)
            warned_tail = True
        if monitor_breaking and row.max_vx > breaking_factor * initial_maxvx:
            messages.append(
                f"gradient catastrophe detected at t={state.t:.6g}: "
                f"max|v_x| grew {row.max_vx / initial_maxvx:.1f}x"
            )
            return RunResult(
                rows=rows,
                snapshots=snapshots,
                status="breaking",
                breaking_time=state.t,
                messages=messages,
            )
    return RunResult(rows=rows, snapshots=snapshots, status="completed", messages=messages)


@dataclass
class DriftEntry:
    name: str
    initial: float
    max_abs_drift: float
    scale: float

    @property
    def relative(self) -> float:
        return self.max_abs_drift / max(self.scale, 1e-30)


def drift_summary(
    cflow: CompiledFlow, rows: Sequence[DiagnosticsRow], state0: FieldState
) -> list:
    """Worst conservation drift of each tracked functional over the run,
    relative to the L1 norm of its density at t = 0 (integrals that start
    at exactly zero still get a meaningful scale)."""
    grid = state0.grid
    v0 = state0.v
    L = grid.length
    scales = {}
    for i in range(cflow.n):
        scales[f"U_{i + 1}"] = float(np.mean(np.abs(v0[i])) * L)
    quad0 = 0.5 * np.einsum("jm,jl,lm->m", v0, cflow.eta_down, v0)
    scales["momentum"] = float(np.mean(np.abs(quad0)) * L)
    scales["H1"] = scales["momentum"]
    scales["H2"] = float(np.mean(np.abs(cflow.S(v0))) * L)

    def series(name):
        if name.startswith("U_"):
            i = int(name[2:]) - 1
            return [r.means[i] for r in rows]
        return [getattr(r, name.lower() if name.startswith("H") else name) for r in rows]

    out = []
    for name in list(scales):
        vals = series(name)
        drift = max(abs(x - vals[0]) for x in vals)
        out.append(
            DriftEntry(name=name, initial=vals[0], max_abs_drift=drift, scale=scales[name])
        )
    return out


# ---------------------------------------------------------------------------
# numeric commutation probe
# ---------------------------------------------------------------------------


@dataclass
class CommutationDefect:
    defect: float
    defect_half: float
    ratio: float
    commuting: bool


def commute_check_numeric(
    flowA: ConservativeFlow | CompiledFlow,
    flowB: ConservativeFlow | CompiledFlow,
    state: FieldState,
    tau: float = 1e-3,
) -> CommutationDefect:
    """Composition defect of the two time-tau maps, in both orders.

    Single forward-Euler maps are used on purpose: their composition defect
    is tau^2 [X, Y] + O(tau^3), so commuting flows show an O(tau^3) defect
    (factor >= ~8 under tau halving) while non-commuting ones stall at
    O(tau^2) (factor ~4).
    """
    ca = flowA if isinstance(flowA, CompiledFlow) else compile_flow(flowA)
    cb = flowB if isinstance(flowB, CompiledFlow) else compile_flow(flowB)
    grid = state.grid

    def euler(cf, v, h):
        out = v + h * cf.rhs(grid, v)
        if not np.all(np.isfinite(out)):
            raise SimulationError("probe step produced non-finite values")
        return out

    def defect(h):
        ab = euler(ca, euler(cb, state.v, h), h)
        ba = euler(cb, euler(ca, state.v, h), h)
        return float(np.max(np.abs(ab - ba)))

    d0 = defect(tau)
    d1 = defect(tau / 2)
    floor = 1e-13 * (1.0 + float(np.max(np.abs(state.v))))
    if d0 <= floor:
        return CommutationDefect(d0, d1, float("inf"), True)
    ratio = d0 / d1 if d1 > 0 else float("inf")
    return CommutationDefect(d0, d1, ratio, ratio >= 7.0)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def write_diagnostics_csv(rows: Sequence[DiagnosticsRow], path, n: int) -> None:
    header = (
        "t,"
        + ",".join(f"U_{i + 1}" for i in range(n))
        + ",momentum,H1,H2,max_vx,tail"
    )
    lines = [header]
    for r in rows:
        fields = [repr(r.t)]
        fields += [repr(x) for x in r.means]
        fields += [repr(r.momentum), repr(r.h1), repr(r.h2), repr(r.max_vx), repr(r.tail)]
        lines.append(",".join(fields))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_snapshot_csv(grid: Grid, v: np.ndarray, path) -> None:
    n = v.shape[0]
    header = "x," + ",".join(f"v{i + 1}" for i in range(n))
    lines = [header]
    for m, x in enumerate(grid.nodes):
        lines.append(",".join([repr(float(x))] + [repr(float(v[i][m])) for i in range(n)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
