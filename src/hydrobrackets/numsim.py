"""Pseudo-spectral integration of conservative hydrodynamic flows on a
periodic domain, with conservation diagnostics and numeric cross-checks of
the symbolic machinery.

A flow's V and S are polynomials, compiled into two fixed monomial tables:
one of V for the stages of a step, one of V and then S for the diagnostics.
Initial data is sampled from its parse tree, as written.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from typing import Sequence

from . import expr as _expr
from .expr import Expr
from .hierarchy import ConservativeFlow
from .poly import ExpressionSizeError

__all__ = [
    "Grid",
    "RunResult",
    "CompiledFlow",
    "SimulationError",
    "CFLError",
    "spectral_dx",
    "MonomialTable",
    "compile_flow",
    "sample_initial_data",
    "step_rk4",
    "run",
    "commute_check_numeric",
    "write_diagnostics_csv",
    "write_snapshot_csv",
]


class _Numpy:
    """Stands in for numpy, so that importing this module does not load it:
    the first attribute read imports numpy and rebinds ``np`` to it."""

    def __getattr__(self, name):
        global np
        import numpy as np

        return getattr(np, name)


np = _Numpy()


class SimulationError(RuntimeError):
    pass


class CFLError(SimulationError):
    """Raised by :func:`run` before a step whose CFL number exceeds 1."""


# run: a gradient catastrophe is max|v_x| above this multiple of its initial
# value; resolution loss is a spectral tail fraction above the threshold
BREAKING_FACTOR = 50.0
TAIL_THRESHOLD = 1e-6

# the largest grid and the most time steps a problem file may ask for, and
# the most values in the table of powers 1, v, ..., v^top of one variable, in
# the table of monomials of one evaluation or in the coefficient matrix of a
# MonomialTable (2^23 doubles: 64 MiB)
MAX_GRID_M = 1 << 16
MAX_STEPS = 1 << 20
POWER_TABLE_LIMIT = 1 << 23

# commute_check_numeric: the time step of its forward-Euler maps
PROBE_TAU = 1e-3


class Grid:
    """Uniform periodic grid: m points (power of two, >= 8) on [0, length)."""

    def __init__(self, m: int, length: float):
        if m < 8 or (m & (m - 1)) != 0:
            raise ValueError("grid size must be a power of two, at least 8")
        if not length > 0:
            raise ValueError("period length must be positive")
        self.m, self.length = m, length

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.m) * (self.length / self.m)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi / self.length * np.arange(self.m // 2 + 1)

    @cached_property
    def _ik(self) -> np.ndarray:
        return 1j * self.wavenumbers


def spectral_dx(grid: Grid, s: np.ndarray) -> np.ndarray:
    """Fourier differentiation along the last axis; exact for band-limited
    data."""
    return _dx_from_spectrum(grid, np.fft.rfft(s))


def _dx_from_spectrum(grid: Grid, spec: np.ndarray) -> np.ndarray:
    spec = spec * grid._ik
    spec[..., -1] = 0.0  # Nyquist mode carries no odd derivative
    return np.fft.irfft(spec, n=grid.m)


# ---------------------------------------------------------------------------
# compiling exact expressions into array evaluators
# ---------------------------------------------------------------------------


def _float(c) -> float:
    """An exact constant as a float; one beyond the float range raises
    ExpressionSizeError, like the table's other size limits."""
    try:
        return float(c)
    except OverflowError:
        raise ExpressionSizeError("a coefficient exceeds the float range") from None


class MonomialTable:
    """The polynomials of a flow (its V and S) over fixed variables,
    compiled into one table.

    ``exponents`` (T x N integers) holds every distinct monomial of the
    polynomials, numbered by first appearance; row 0 is the constant
    monomial.  ``coeffs`` (R x T) has one row per polynomial, in input
    order.  An evaluation forms the powers of each variable once, in arrays
    of its own, the T monomial values from them, and every row with one
    matrix product.  The power plan is fixed when the table is built and no
    evaluation changes the table, so one table may be evaluated from
    several threads at once.
    """

    def __init__(self, exprs: Sequence[Expr], var_order: Sequence[str]):
        missing = set().union(*(e.free_vars() for e in exprs)) - set(var_order)
        if missing:
            raise ValueError(f"expression has unbound variables {sorted(missing)}")
        if not all(e.is_poly() for e in exprs):
            raise ValueError("a monomial table holds polynomials only")
        columns = {(0,) * len(var_order): 0}
        entries = []
        for r, e in enumerate(exprs):
            for row, c in e.num.exponent_rows(var_order):
                entries.append((r, columns.setdefault(row, len(columns)), _float(c)))
        E = self.exponents = np.array(list(columns), dtype=np.intp).reshape(
            len(columns), len(var_order)
        )
        if len(exprs) * len(columns) > POWER_TABLE_LIMIT:
            raise ExpressionSizeError(
                f"a coefficient matrix of {len(exprs)} x {len(columns)} "
                f"(rows x monomials) exceeds {POWER_TABLE_LIMIT} values"
            )
        self.coeffs = np.zeros((len(exprs), len(columns)))
        for r, col, c in entries:
            self.coeffs[r, col] = c
        # (variable, top power, exponent column) of each variable that occurs
        plan = [(i, int(c.max()), np.ascontiguousarray(c)) for i, c in enumerate(E.T) if c.any()]
        self._plan = tuple(plan)

    def monomials(self, stack: np.ndarray) -> np.ndarray:
        """Every monomial at the samples of a stack of shape (N, M): shape
        (T, M).  A table of monomials or powers above ``POWER_TABLE_LIMIT``
        values raises ExpressionSizeError before any table is allocated."""
        terms, m = len(self.exponents), stack.shape[1]
        if terms * m > POWER_TABLE_LIMIT:
            raise ExpressionSizeError(
                f"a table of {terms} monomials at {m} samples exceeds "
                f"{POWER_TABLE_LIMIT} values"
            )
        for _, top, _ in self._plan:
            if (top + 1) * m > POWER_TABLE_LIMIT:
                raise ExpressionSizeError(
                    f"a table of powers up to {top} at {m} samples exceeds "
                    f"{POWER_TABLE_LIMIT} values"
                )
        out = None
        for i, top, column in self._plan:
            x = stack[i]
            powers = np.empty((top + 1, m))
            powers[0] = 1.0
            for e in range(1, top + 1):
                np.multiply(powers[e - 1], x, out=powers[e])
            if out is None:
                out = powers[column]
            else:
                out *= powers[column]
        return np.ones((terms, m)) if out is None else out

    def __call__(self, stack: np.ndarray) -> np.ndarray:
        """Every polynomial at the samples of a float stack of shape (N, M):
        shape (R, M)."""
        return self.coeffs @ self.monomials(stack)


def _sample_tree(tree, x: np.ndarray) -> np.ndarray:
    """The parse tree of an initial datum (see ``expr.parse``) at the
    points ``x``, each operation as written."""

    def at(node, values):
        if isinstance(node, _expr._Const):
            return np.full(x.shape, _float(node.value))
        if isinstance(node, _expr._Var):
            if node.name != "x":
                raise ValueError(f"initial data has an unbound variable {node.name!r}")
            return x
        if isinstance(node, _expr._Add):
            return sum(values)
        if isinstance(node, _expr._Mul):
            out = values[0]
            for v in values[1:]:
                out = out * v
            return out
        if isinstance(node, _expr._Pow):
            return values[0] ** node.exp
        if isinstance(node, _expr._Div):
            return values[0] / values[1]
        # a call is one of expr.TRANSCENDENTALS, each a numpy ufunc of that name
        return getattr(np, node.fn)(values[0])

    return _expr._fold_tree(tree, at)


def dealias_two_thirds(grid: Grid, s: np.ndarray) -> np.ndarray:
    """Zero the top third of the spectrum along the last axis (classical
    2/3 rule)."""
    spec = np.fft.rfft(s)
    spec[..., (2 * (grid.m // 2)) // 3 :] = 0.0
    return np.fft.irfft(spec, n=grid.m)


class CompiledFlow:
    """A conservative flow compiled into two monomial tables.  Rows
    0..n^2-1 of each are V[i][k] in row-major order; ``table`` has one row
    more, n^2, the density S.  ``v_table`` is what :meth:`rhs` reads, and
    ``table`` is what the diagnostics of a state read."""

    def __init__(self, n: int, v_table: MonomialTable, table: MonomialTable, eta_down, dealias=False):
        self.n, self.v_table, self.table = n, v_table, table
        self.eta_down, self.dealias = eta_down, dealias

    def rhs(self, grid: Grid, v: np.ndarray) -> np.ndarray:
        """V(v) v_x, from the V table."""
        V = self.v_table(v).reshape(self.n, self.n, -1)
        return self.rhs_from(grid, V, spectral_dx(grid, v))

    def rhs_from(self, grid: Grid, V: np.ndarray, vx: np.ndarray) -> np.ndarray:
        """V v_x from V, shape (n, n, M), and v_x, dealiased if the flow is."""
        out = np.einsum("ikm,km->im", V, vx)
        return dealias_two_thirds(grid, out) if self.dealias else out

    def gershgorin_max(self, V: np.ndarray) -> float:
        """The Gershgorin bound of V, shape (n, n, M), over the grid."""
        return float(np.max(np.sum(np.abs(V), axis=1)))


def compile_flow(flow: ConservativeFlow, dealias: bool = False) -> CompiledFlow:
    n = flow.n
    entries = [flow.V[i][k] for i in range(n) for k in range(n)]
    # the (V, S) table first: it is the larger, so its size error comes first
    table = MonomialTable(entries + [flow.S], flow.vars)
    v_table = MonomialTable(entries, flow.vars)
    eta_down = np.array([[_float(x) for x in row] for row in flow.eta.down])
    return CompiledFlow(n, v_table, table, eta_down, dealias)


def sample_initial_data(grid: Grid, initial: Sequence) -> np.ndarray:
    """Evaluate initial data in x on the grid nodes, one row per datum:
    each datum is the parse tree that ``expr.parse`` returns in initial-data
    mode, sampled as written, so no numerator is expanded.  Data that is not
    finite on the grid (e.g. 1/sin(x)) raises ValueError."""
    x = grid.nodes
    rows = []
    for i, tree in enumerate(initial):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            row = _sample_tree(tree, x)
        if not np.all(np.isfinite(row)):
            raise ValueError(f"initial datum {i + 1} is not finite on the grid")
        rows.append(row)
    return _field(grid, np.stack(rows))


def _field(grid: Grid, v) -> np.ndarray:
    """v as a float array of shape (N, M) with finite values; the check of
    every array that enters the simulator."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] != grid.m:
        raise ValueError("field array must have shape (N, M)")
    if not np.all(np.isfinite(v)):
        raise ValueError("field values must be finite")
    return v


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


def step_rk4(
    cflow: CompiledFlow, grid: Grid, v: np.ndarray, t: float, dt: float, k1: np.ndarray
) -> np.ndarray:
    """The field at t + dt after one classical four-stage explicit step of
    v_t = V(v) v_x from the field v at t, given the first stage ``k1``, the
    right side at v; the CFL guard is :func:`run`'s."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    k2 = cflow.rhs(grid, v + 0.5 * dt * k1)
    k3 = cflow.rhs(grid, v + 0.5 * dt * k2)
    k4 = cflow.rhs(grid, v + dt * k3)
    vn = v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(vn)):
        raise SimulationError(f"non-finite state at t = {t + dt:.6g}")
    return vn


def _columns(n: int) -> tuple:
    """The names of the values in one diagnostics row of an n-component
    run: the time, the integral of each tracked functional, max|v_x| and
    the spectral tail fraction."""
    return ("t", *(f"U_{i + 1}" for i in range(n)), "momentum", "H1", "H2", "max_vx", "tail")


class RunResult:
    def __init__(
        self, columns: tuple, rows: list, snapshots: list, status: str, breaking_time=None, messages=None
    ):
        self.columns = columns  # _columns(N)
        self.rows = rows  # one list of floats per step, in column order
        self.snapshots = snapshots  # (time, array copy)
        self.status = status  # "completed" | "breaking"
        self.breaking_time = breaking_time
        self.messages = [] if messages is None else messages


def _densities(cflow: CompiledFlow, v: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The distinct densities of the tracked functionals at the state v, one
    row each of a C-contiguous stack: v^1 .. v^n, the quadratic density
    (momentum and H1) and S (H2)."""
    quad = 0.5 * np.einsum("jm,jl,lm->m", v, cflow.eta_down, v)
    return np.concatenate((v, quad[np.newaxis], S[np.newaxis]))


def _integrals(grid: Grid, densities: np.ndarray) -> list:
    """The integral of each tracked functional over the period, in column
    order (U_1 .. U_n, momentum, H1, H2), as the grid mean times the length
    (the mean is the row sum over M, as ``np.mean`` takes it)."""
    values = (np.add.reduce(densities, axis=-1) / grid.m * grid.length).tolist()
    return values[:-1] + values[-2:]  # momentum and H1 share the quadratic density


def _evaluate(cflow: CompiledFlow, grid: Grid, v: np.ndarray, t: float) -> tuple:
    """One product of the (V, S) table and one FFT of the field v at t:
    its diagnostics row, its coefficient matrix V (n, n, M) and its v_x."""
    values = cflow.table(v)
    spec = np.fft.rfft(v)
    vx = _dx_from_spectrum(grid, spec)
    power = np.abs(spec) ** 2
    totals = np.add.reduce(power, axis=1)
    tails = np.add.reduce(power[:, (2 * (grid.m // 2)) // 3 :], axis=1)
    tail = max(
        (float(np.sqrt(part / total)) for part, total in zip(tails, totals) if total > 0),
        default=0.0,
    )
    row = [t, *_integrals(grid, _densities(cflow, v, values[-1])), float(np.max(np.abs(vx))), tail]
    return row, values[:-1].reshape(cflow.n, cflow.n, -1), vx


def run(
    cflow: CompiledFlow,
    v0: np.ndarray,
    grid: Grid,
    dt: float,
    t_end: float,
    snapshot_times: Sequence[float] = (),
) -> RunResult:
    """Evolve the field v0, shape (N, M), under the compiled flow, recording
    one diagnostics row per step and one snapshot at each step that is the
    nearest to one or more of the requested times.

    A step whose CFL number dt*max|V|*M/L exceeds 1 raises
    :class:`CFLError` before it is taken.  Aborts with status
    ``"breaking"`` once max|v_x| exceeds ``BREAKING_FACTOR`` times its
    initial value (gradient catastrophe); a resolution-loss message is
    recorded when the spectral tail fraction crosses ``TAIL_THRESHOLD``.
    """
    v = _field(grid, v0)
    if len(v) != cflow.n:
        raise ValueError("initial data does not match the flow dimension")
    columns = _columns(cflow.n)
    dt, t_end, t = float(dt), float(t_end), 0.0

    row, V, vx = _evaluate(cflow, grid, v, t)
    rows = [row]
    initial_maxvx = row[-2]  # the max_vx column
    amplitude = float(np.max(np.abs(v))) if v.size else 0.0
    monitor_breaking = initial_maxvx > 1e-13 * (1.0 + amplitude)
    messages: list = []
    snapshots = []
    pending = sorted(snapshot_times)

    def take_snapshot():
        due = bisect_right(pending, t + dt / 2)
        if due:
            snapshots.append((t, v.copy()))
            del pending[:due]

    take_snapshot()
    warned_tail = False
    # the summed t falls short of t_end by its rounding, at most half an ulp
    # of t_end per step; the bound stays far below dt up to MAX_STEPS steps
    # (step_rk4 refuses a dt that is not positive)
    steps = t_end / dt if dt > 0 else 0.0
    eps = max(1e-12, (steps + 1) * math.ulp(1.0)) * abs(t_end)
    while t < t_end - eps:
        step = min(dt, t_end - t)
        cfl = step * cflow.gershgorin_max(V) * grid.m / grid.length
        if cfl > 1.0:
            raise CFLError(
                f"CFL number {cfl:.3f} at t={t:.6g} exceeds 1 "
                "(dt*|V|*M/L); reduce dt"
            )
        v = step_rk4(cflow, grid, v, t, step, cflow.rhs_from(grid, V, vx))
        t += step
        row, V, vx = _evaluate(cflow, grid, v, t)
        rows.append(row)
        take_snapshot()
        max_vx, tail = row[-2:]
        if not warned_tail and tail > TAIL_THRESHOLD:
            messages.append(
                f"spectral tail fraction {tail:.3e} exceeds "
                f"{TAIL_THRESHOLD:.1e} at t={t:.6g}; resolution loss"
            )
            warned_tail = True
        if monitor_breaking and max_vx > BREAKING_FACTOR * initial_maxvx:
            messages.append(
                f"gradient catastrophe detected at t={t:.6g}: "
                f"max|v_x| grew {max_vx / initial_maxvx:.1f}x"
            )
            return RunResult(columns, rows, snapshots, "breaking", breaking_time=t, messages=messages)
    return RunResult(columns, rows, snapshots, "completed", messages=messages)


class DriftEntry:
    def __init__(self, name: str, initial: float, relative: float):
        self.name, self.initial = name, initial
        self.relative = relative  # worst |drift| over the L1 norm of the density at t = 0


def drift_summary(cflow: CompiledFlow, rows: Sequence[list], grid: Grid, v0: np.ndarray) -> list:
    """Worst conservation drift of each tracked functional over the rows of
    a run from the field v0, relative to the L1 norm of its density at
    t = 0 (integrals that start at exactly zero still get a meaningful
    scale)."""
    scales = _integrals(grid, np.abs(_densities(cflow, v0, cflow.table(v0)[-1])))
    names = _columns(cflow.n)[1:-2]
    out = []
    for column, (name, scale) in enumerate(zip(names, scales), start=1):
        vals = [r[column] for r in rows]
        drift = max(abs(x - vals[0]) for x in vals)
        out.append(DriftEntry(name, vals[0], drift / max(scale, 1e-30)))
    return out


# ---------------------------------------------------------------------------
# numeric commutation probe
# ---------------------------------------------------------------------------


class CommutationDefect:
    def __init__(self, defect: float, ratio: float, commuting: bool):
        self.defect, self.ratio, self.commuting = defect, ratio, commuting


def commute_check_numeric(
    ca: CompiledFlow, cb: CompiledFlow, grid: Grid, v: np.ndarray
) -> CommutationDefect:
    """Composition defect of the two time-tau maps, tau = PROBE_TAU, at the
    field v, in both orders.

    Single forward-Euler maps are used on purpose: their composition defect
    is tau^2 [X, Y] + O(tau^3), so commuting flows show an O(tau^3) defect
    (factor >= ~8 under tau halving) while non-commuting ones stall at
    O(tau^2) (factor ~4).
    """

    def euler(cf, w, h):
        out = w + h * cf.rhs(grid, w)
        if not np.all(np.isfinite(out)):
            raise SimulationError("probe step produced non-finite values")
        return out

    def defect(h):
        ab = euler(ca, euler(cb, v, h), h)
        ba = euler(cb, euler(ca, v, h), h)
        return float(np.max(np.abs(ab - ba)))

    d0 = defect(PROBE_TAU)
    d1 = defect(PROBE_TAU / 2)
    floor = 1e-13 * (1.0 + float(np.max(np.abs(v))))
    if d0 <= floor:
        return CommutationDefect(d0, float("inf"), True)
    ratio = d0 / d1 if d1 > 0 else float("inf")
    return CommutationDefect(d0, ratio, ratio >= 7.0)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def write_diagnostics_csv(columns: Sequence[str], rows: Sequence[list], path) -> None:
    """One header line of the column names, then one line per row, each
    float written as its repr."""
    lines = [",".join(columns)]
    lines += [",".join(map(repr, r)) for r in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_snapshot_csv(grid: Grid, v: np.ndarray, path) -> None:
    n = v.shape[0]
    header = "x," + ",".join(f"v{i + 1}" for i in range(n))
    lines = [header]
    for row in np.vstack((grid.nodes, v)).T.tolist():
        lines.append(",".join(map(repr, row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
