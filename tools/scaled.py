"""The scaled exact workloads, timed in-process (wall clock, best of three).

    python3 tools/scaled.py [--json]

It prints eight markdown tables, or with ``--json`` one JSON object per
measured value (``name``, ``unit``, ``value``) on a line of its own:

* ``hierarchy`` on the linear N=2 and N=3 pairs at 6-8 and 4-8 levels and the
  linear N=4 pair at 3-5 levels (eta = I, K = 1): the seconds spent
  generating the flows, the whole of the ``hierarchy`` command's exact work
  (every pair of levels commutes and is in involution by construction);
* the canonical constant-curvature metric a = (1, ..., N), K = 1, at
  N = 6, 8, 10, 12: the seconds to build the bracket as ``Problem.bracket()``
  builds it (the canonical pair of eta = I and H^j = a^j u^j / 2), the
  seconds of the Christoffel route beside it (the closed covariant metric,
  then ``geometry.christoffel``; the test oracle of that bracket), then the
  milliseconds to build the derivative, curl and support tables, to
  generate each residual family s1-s5 and c1 (against eta = I), and to
  generate ass1 and ass2 of the quadratic pair that translates the family
  by c = (1, ..., N) (eta = I, K = 1, H^j = a^j u^j / 2 - c^j (c.u + u.u) / 2,
  whose bracket is the family's metric at u + c);
* ``load_problem`` on an explicit g/b file shaped like the benchmark's
  (g^{ij} = a^i delta^{ij} - K u^i u^j, b^{ij}_k = -K u^j delta^i_k, with
  a^i = i/2 and K = 1/3) at N = 5, 6, 8: the milliseconds of one load, the
  number of g and b entries and the number of distinct strings among them;
* ``simulate`` on the linear N=2 pair (eta = I, K = 1) at every (level, M)
  of the benchmark's pair runs, with their dt and steps
  (``SIM_PAIR_STEP`` of ``perfbench/workloads.py``, read only): the
  microseconds of one RK4 step with its diagnostics in-process
  (``numsim.run``); and at level 2, M = 512, the milliseconds from
  ``cli.main`` returning to the exit of a fresh
  ``python -m hydrobrackets simulate`` process (interpreter teardown).  The
  teardown is the median of five processes; the child stamps the moment
  ``main`` returns on ``time.monotonic``, which is the parent's clock too;
* source compile: the milliseconds to ``compile()`` the source of each
  module of ``src/hydrobrackets``, and of all of them in one pass, with
  their line counts.  Every process that imports the package pays this
  when it finds no bytecode cache, as under ``PYTHONDONTWRITEBYTECODE=1``
  with no ``__pycache__`` left from an earlier run;
* initial data: the milliseconds to ``parse`` the datum
  1/((1 + x/100000)^e + 1) at e = 500 and 1000 (its divisor factor is a
  sum holding a high power, which made exact would be expanded), and to
  ``load_problem`` the first file of the benchmark's ``simulate`` workload
  at seed ``SIMULATE_SEED``;
* rational arithmetic on the same corpus: the median and the worst
  milliseconds to form each sum of four quotients, their product, and the
  cubes of the four quotients (``Expr`` arithmetic, no ``str()``);
* the gcd corpus: 25 seeded sums of four quotients in u1, u2, v1
  (``gcd_corpus``): the median and the worst milliseconds of one ``str()``,
  which reduces each sum through ``poly_gcd``.

Every verdict is checked (``hierarchy`` returns every level, so the pair
passed ass1/ass2 and every level's potentials exist; the canonical bracket
equals the Christoffel route's, is Poisson and passes c1 against eta = I;
the translated pair solves ass1 and ass2; every loaded entry equals its
string parsed alone; the simulation completes within its drift tolerance;
the parsed datum samples as numpy evaluates its text; the loaded simulate
file samples finite initial data; each sum, product and cube takes the
value at a rational point that the quotients' values there give;
each corpus string parses back to its sum, and the sum taken in reverse
prints the same string), so a timing is never taken of a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py, read only)

from hydrobrackets import geometry  # noqa: E402
from hydrobrackets.bracket import (  # noqa: E402
    CanonicalPair,
    ConstantBracket,
    _ass_residuals,
    _c_residuals,
    _s_residuals,
)
from hydrobrackets.cli import Problem, load_initial_state, load_problem  # noqa: E402
from hydrobrackets.expr import Expr, parse  # noqa: E402
from hydrobrackets.hierarchy import hierarchy  # noqa: E402
from hydrobrackets import numsim  # noqa: E402
from hydrobrackets.poly import Poly  # noqa: E402

REPEATS = 3
POTENTIALS = {
    2: ("2*u1 - u2", "u1 + 3*u2"),
    3: ("2*u1 - u2 + u3", "u1 + 3*u2", "2*u1 + u2 - u3"),
    4: ("2*u1 - u2 + u3", "u1 + 3*u2 + u4", "2*u1 + u2 - u3", "u4 - u1"),
}
HIERARCHY_ROWS = (
    [(2, levels) for levels in range(6, 9)]
    + [(3, levels) for levels in range(4, 9)]
    + [(4, levels) for levels in range(3, 6)]
)
RESIDUAL_ROWS = [6, 8, 10, 12]
LOAD_ROWS = [5, 6, 8]
FAMILIES = ("s1", "s2", "s3", "s4", "s5", "c1", "ass1", "ass2")
# (level, M, dt, steps) of each simulate row: the benchmark's pair runs; the
# teardown is timed on its level-2 M=512 runs
SIMULATE_ROWS = [
    (level, m, float(dt), steps) for (level, m), (dt, steps, _) in workloads.SIM_PAIR_STEP.items()
]
TEARDOWN_ROW = next(row for row in SIMULATE_ROWS if row[:2] == (2, 512))
TEARDOWN_PROCESSES = 5
INITIAL_DATA_EXPONENTS = [500, 1000]
SIMULATE_SEED = 1
PACKAGE = ROOT / "src" / "hydrobrackets"
CORPUS_SEEDS = range(1000, 1025)
CORPUS_VARS = ("u1", "u2", "v1")
# each operation on the four quotients of a corpus sum, as a list, with the
# values it takes at ARITHMETIC_POINT from the quotients' values there
ARITHMETIC = {
    "sum": (lambda qs: [sum(qs, Expr.const(0))], lambda xs: [sum(xs)]),
    "product": (lambda qs: [reduce(operator.mul, qs)], lambda xs: [math.prod(xs)]),
    "cubes": (lambda qs: [q**3 for q in qs], lambda xs: [x**3 for x in xs]),
}
ARITHMETIC_POINT = {"u1": Fraction(3, 7), "u2": Fraction(-2, 5), "v1": Fraction(11, 13)}
TWO_PI = 6.283185307179586
INIT = ["0.05*sin(x)", "0.05*cos(x) + 0.02*sin(2*x)"]

# the child: python -m hydrobrackets, with cli.main wrapped to print the
# moment it returns as the last line of stderr
_STAMPED_ENTRY = """
import runpy, sys, time
import hydrobrackets.cli as cli
main = cli.main
def stamped(argv=None):
    code = main(argv)
    print(repr(time.monotonic()), file=sys.stderr)
    return code
cli.main = stamped
sys.argv[0] = "hydrobrackets"
runpy.run_module("hydrobrackets", run_name="__main__", alter_sys=True)
"""


def _best(fn, repeats):
    """(least seconds, value) of ``repeats`` calls of fn()."""
    best, value = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def identity_eta(n: int) -> ConstantBracket:
    return ConstantBracket([[int(i == j) for j in range(n)] for i in range(n)])


def linear_pair(n: int) -> CanonicalPair:
    vars = tuple(f"u{i + 1}" for i in range(n))
    return CanonicalPair(eta=identity_eta(n), K=1, H=tuple(parse(h, vars) for h in POTENTIALS[n]), vars=vars)


def translated_pair(n: int) -> CanonicalPair:
    """The canonical family a = (1, ..., N), K = 1, translated by c = a."""
    vars = tuple(f"u{i + 1}" for i in range(n))
    cu = " + ".join(f"{i + 1}*{v}" for i, v in enumerate(vars))
    uu = " + ".join(f"{v}^2" for v in vars)
    H = tuple(parse(f"{j + 1}*{v}/2 - {j + 1}*({cu} + {uu})/2", vars) for j, v in enumerate(vars))
    return CanonicalPair(eta=identity_eta(n), K=1, H=H, vars=vars)


def hierarchy_row(n: int, levels: int, repeats: int = REPEATS) -> float:
    """Seconds to generate the flows of the N=n pair to ``levels``."""
    P = linear_pair(n)
    return _best(lambda: hierarchy(P, levels), repeats)[0]


def residual_row(n: int, repeats: int = REPEATS) -> tuple:
    """(bracket s, christoffel s, tables ms, {family: ms}) on the canonical
    metric at N=n."""
    a = list(range(1, n + 1))
    problem = Problem({"N": n, "K": 1, "canonical": {"a": a}}, "canonical")
    bracket, B = _best(problem.bracket, repeats)

    def oracle():
        up, down, _ = geometry.canonical_metric(a, 1)
        return up, geometry.christoffel(geometry.field_vars(n), up, down)

    christoffel, (up, b) = _best(oracle, repeats)
    if not all(
        (B.g[i][j] - up[i][j]).is_zero()
        and all((B.b[i][j][k] - b[i][j][k]).is_zero() for k in range(n))
        for i in range(n)
        for j in range(n)
    ):
        raise AssertionError(f"canonical N={n}: the bracket differs from the Christoffel route")
    tables, families = float("inf"), {name: float("inf") for name in FAMILIES}
    P = translated_pair(n)
    for _ in range(repeats):
        B = problem.bracket()  # fresh, so that its tables are built again
        t0 = time.perf_counter()
        generators = _s_residuals(B)
        tables = min(tables, time.perf_counter() - t0)
        generators += _c_residuals(B, identity_eta(n))[:1] + _ass_residuals(P)
        for name, gen in generators:
            t0 = time.perf_counter()
            residuals = list(gen)
            families[name] = min(families[name], time.perf_counter() - t0)
            if any(not e.is_zero() for _, e in residuals):
                raise AssertionError(f"canonical N={n} fails {name}")
    return bracket, christoffel, tables * 1e3, {name: t * 1e3 for name, t in families.items()}


def explicit_doc(n: int) -> dict:
    """The benchmark's explicit g/b file at N=n, a^i = i/2, K = 1/3."""
    g = [[(f"{i + 1}/2" if i == j else "0") + f" - (1/3)*u{i + 1}*u{j + 1}" for j in range(n)] for i in range(n)]
    b = [[[f"-(1/3)*u{j + 1}" if i == k else "0" for k in range(n)] for j in range(n)] for i in range(n)]
    return {"N": n, "K": "1/3", "g": g, "b": b}


def load_row(n: int, repeats: int = REPEATS) -> tuple:
    """(ms per load, entries, distinct strings) of the explicit file at N=n."""
    doc = explicit_doc(n)
    texts = [x for row in doc["g"] for x in row] + [x for plane in doc["b"] for row in plane for x in row]
    with tempfile.TemporaryDirectory(prefix="scaled-") as tmp:
        path = Path(tmp) / "explicit.json"
        path.write_text(json.dumps(doc))
        seconds, problem = _best(lambda: load_problem(str(path)), repeats)
    g, b = problem.explicit
    entries = [x for row in g for x in row] + [x for plane in b for row in plane for x in row]
    if any(str(e) != str(parse(t, problem.vars)) for t, e in zip(texts, entries)):
        raise AssertionError(f"explicit N={n}: a loaded entry differs from its string parsed alone")
    return seconds * 1e3, len(texts), len(set(texts))


def _simulate_doc(level: int, m: int, dt: float, steps: int) -> dict:
    return {
        "N": 2,
        "eta": [[1, 0], [0, 1]],
        "K": 1,
        "H": list(POTENTIALS[2]),
        "simulation": {"grid_M": m, "L": TWO_PI, "dt": dt, "t_end": dt * steps, "init": INIT},
    }


def step_row(level: int, m: int, dt: float, steps: int, repeats: int = REPEATS) -> float:
    """Microseconds per RK4 step (diagnostics included) of ``numsim.run``."""
    flow = hierarchy(linear_pair(2), level)[level]
    cflow = numsim.compile_flow(flow)
    grid = numsim.Grid(m, TWO_PI)
    init = [parse(text, ("x",), initial_data=True) for text in INIT]
    v0 = numsim.sample_initial_data(grid, init)
    seconds, result = _best(lambda: numsim.run(cflow, v0, grid, dt, dt * steps), repeats)
    if result.status != "completed" or len(result.rows) != steps + 1:
        raise AssertionError(f"level {level}, M={m}: the run did not complete {steps} steps")
    return seconds / steps * 1e6


def teardown_row(level: int, m: int, dt: float, steps: int, processes: int = TEARDOWN_PROCESSES) -> float:
    """Milliseconds from ``main`` returning to process exit, median over
    fresh ``python -m hydrobrackets simulate`` processes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    with tempfile.TemporaryDirectory(prefix="scaled-") as tmp:
        problem = Path(tmp) / "pair.json"
        problem.write_text(json.dumps(_simulate_doc(level, m, dt, steps)))
        argv = ["simulate", str(problem), "--level", str(level), "--out", tmp]
        for _ in range(processes):
            proc = subprocess.run(
                [sys.executable, "-c", _STAMPED_ENTRY, *argv], capture_output=True, text=True, env=env, timeout=300
            )
            exited = time.monotonic()
            if proc.returncode != 0 or "verdict: PASS" not in proc.stdout:
                raise AssertionError(f"simulate exited {proc.returncode}: {proc.stderr.strip()}")
            samples.append(exited - float(proc.stderr.split()[-1]))
    return statistics.median(samples) * 1e3


def compile_rows(repeats: int = REPEATS) -> list:
    """(module, lines, ms) of each module of the package, the least of
    ``repeats`` ``compile()`` calls of its source, then ("total", lines,
    ms) of every module compiled in one pass."""
    sources = [(str(path), path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]

    def build(items):
        return [compile(text, path, "exec", dont_inherit=True) for path, text in items]

    out = [
        (Path(path).name, text.count("\n"), _best(lambda: build([(path, text)]), repeats)[0] * 1e3)
        for path, text in sources
    ]
    total = _best(lambda: build(sources), repeats)[0] * 1e3
    return out + [("total", sum(lines for _, lines, _ in out), total)]


def parse_row(exponent: int, repeats: int = REPEATS) -> float:
    """Milliseconds to parse 1/((1 + x/100000)^exponent + 1) as initial data."""
    text = f"1/((1+x/100000)^{exponent} + 1)"
    seconds, tree = _best(lambda: parse(text, ("x",), initial_data=True), repeats)
    x = np.linspace(0.0, TWO_PI, 16, endpoint=False)
    if not np.allclose(numsim._sample_tree(tree, x), 1 / ((1 + x / 100000) ** exponent + 1), rtol=1e-12):
        raise AssertionError(f"{text}: the parsed datum does not sample as written")
    return seconds * 1e3


def simulate_load_row(repeats: int = REPEATS) -> tuple:
    """(ms per load, file name) of the first simulate file at SIMULATE_SEED."""
    with tempfile.TemporaryDirectory(prefix="scaled-") as tmp:
        path = workloads.build("simulate", SIMULATE_SEED, ROOT, Path(tmp)).files[0]
        seconds, problem = _best(lambda: load_problem(str(path)), repeats)
        if not np.all(np.isfinite(load_initial_state(problem)[1])):
            raise AssertionError(f"{path.name}: the initial data is not finite")
    return seconds * 1e3, path.name


def seeded_poly(rng: random.Random, terms: int, top: int, names) -> Poly:
    """A sum of ``terms`` terms over ``names``: each coefficient +-1..9, then
    each exponent 0..top, drawn in that order."""
    p = Poly()
    for _ in range(terms):
        term = Poly.const(rng.choice([-1, 1]) * rng.randint(1, 9))
        for v in names:
            term = term * Poly.var(v) ** rng.randint(0, top)
        p = p + term
    return p


def gcd_corpus() -> list:
    """The quotients of each corpus sum: per seed, four num/den with 1-3
    terms each over u1, u2, v1 and exponents 0-2, the den nonconstant."""
    corpus = []
    for seed in CORPUS_SEEDS:
        rng = random.Random(seed)
        parts = []
        for _ in range(4):
            num = seeded_poly(rng, rng.randint(1, 3), 2, CORPUS_VARS)
            den = seeded_poly(rng, rng.randint(1, 3), 2, CORPUS_VARS)
            while den.is_const():
                den = seeded_poly(rng, rng.randint(1, 3), 2, CORPUS_VARS)
            parts.append(Expr(num) / Expr(den))
        corpus.append(parts)
    return corpus


def gcd_row(repeats: int = REPEATS) -> tuple:
    """(median ms, worst ms) of ``str()`` over the corpus sums."""
    times = []
    for parts in gcd_corpus():
        total = sum(parts, Expr.const(0))
        seconds, text = _best(lambda: str(total), repeats)
        backward = str(sum(reversed(parts), Expr.const(0)))
        if backward != text or not (parse(text, CORPUS_VARS) - total).is_zero():
            raise AssertionError(f"gcd corpus: {text} is not its sum in both orders")
        times.append(seconds)
    return statistics.median(times) * 1e3, max(times) * 1e3


def arithmetic_row(operation: str, repeats: int = REPEATS) -> tuple:
    """(median ms, worst ms) to form ``operation`` of each corpus entry's
    quotients."""
    form, want = ARITHMETIC[operation]
    times = []
    for parts in gcd_corpus():
        seconds, value = _best(lambda: form(parts), repeats)
        if [e.evaluate(ARITHMETIC_POINT) for e in value] != want([q.evaluate(ARITHMETIC_POINT) for q in parts]):
            raise AssertionError(f"rational arithmetic: a {operation} takes the wrong value")
        times.append(seconds)
    return statistics.median(times) * 1e3, max(times) * 1e3


def rows():
    """(table, row label, cells) of every row, each measured after its
    verdict checks; a cell is (column, unit, value, format)."""
    for n, levels in HIERARCHY_ROWS:
        cells = [("generation", "s", hierarchy_row(n, levels, REPEATS), ".3f")]
        yield "hierarchy", f"N={n} --levels {levels}", cells
    for n in RESIDUAL_ROWS:
        bracket, christoffel, tables, families = residual_row(n, REPEATS)
        cells = [("bracket", "s", bracket, ".3f"), ("christoffel", "s", christoffel, ".3f")]
        cells += [("tables", "ms", tables, ".1f")] + [(f, "ms", families[f], ".1f") for f in FAMILIES]
        yield "canonical", f"N={n}", cells
    for n in LOAD_ROWS:
        ms, entries, distinct = load_row(n, REPEATS)
        cells = [("per file", "ms", ms, ".2f"), ("entries", "count", entries, "d")]
        yield "load explicit g/b", f"N={n}", cells + [("distinct strings", "count", distinct, "d")]
    for level, m, dt, steps in SIMULATE_ROWS:
        cells = [("per step", "us", step_row(level, m, dt, steps, REPEATS), ".0f"), ("dt", "s", dt, "g")]
        yield "simulate", f"N=2 level {level} M={m}", cells + [("steps", "count", steps, "d")]
    level, m, _, _ = TEARDOWN_ROW
    teardown = teardown_row(*TEARDOWN_ROW, processes=TEARDOWN_PROCESSES)
    yield "simulate teardown", f"N=2 level {level} M={m}", [("median", "ms", teardown, ".1f")]
    for module, lines, ms in compile_rows(REPEATS):
        yield "source compile", module, [("compile", "ms", ms, ".2f"), ("lines", "count", lines, "d")]
    for exponent in INITIAL_DATA_EXPONENTS:
        yield "initial data", f"parse exponent={exponent}", [("per call", "ms", parse_row(exponent, REPEATS), ".2f")]
    ms, name = simulate_load_row(REPEATS)
    yield "initial data", f"load_problem seed={SIMULATE_SEED} {name}", [("per call", "ms", ms, ".2f")]
    for operation in ARITHMETIC:
        median, worst = arithmetic_row(operation, REPEATS)
        cells = [("median", "ms", median, ".3f"), ("worst", "ms", worst, ".3f")]
        yield "rational arithmetic", f"{len(CORPUS_SEEDS)} {operation}", cells
    median, worst = gcd_row(REPEATS)
    cells = [("median str", "ms", median, ".2f"), ("worst str", "ms", worst, ".2f")]
    yield "gcd corpus", f"{len(CORPUS_SEEDS)} sums", cells


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Time the scaled exact workloads.")
    ap.add_argument("--json", action="store_true", help="one JSON object per measured value")
    as_json = ap.parse_args(argv).json
    table = None
    for name, label, cells in rows():
        if as_json:
            for column, unit, value, _ in cells:
                record = {"name": f"{name} {label} {column}", "unit": unit, "value": value}
                print(json.dumps(record), flush=True)
            continue
        if name != table:
            if table is not None:
                print()
            print(f"| {name} | " + " | ".join(f"{c} {u}" for c, u, _, _ in cells) + " |")
            print("|---" * (len(cells) + 1) + "|")
            table = name
        print(f"| {label} | " + " | ".join(f"{v:{fmt}}" for _, _, v, fmt in cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
