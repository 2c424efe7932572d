"""The scaled exact workloads, timed in-process (wall clock, best of three).

    python3 tools/scaled.py

It takes no options and prints two markdown tables:

* ``hierarchy`` on the linear N=3 pair at 4-8 levels and the linear N=4 pair
  at 3-5 levels (eta = I, K = 1): the seconds spent generating the flows and
  the seconds spent verifying every pair of them (``verify_hierarchy``, the
  route of the ``hierarchy`` command);
* the canonical constant-curvature metric a = (1, ..., N), K = 1, at
  N = 5-7: the seconds to build the bracket (metric and connection), then
  the milliseconds to build the derivative, curl and support tables and to
  generate each residual family s1-s5.

Every verdict is checked (the flows commute and are in involution; the
canonical bracket is Poisson), so a timing is never taken of a wrong answer.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hydrobrackets import geometry  # noqa: E402
from hydrobrackets.bracket import (  # noqa: E402
    CanonicalPair,
    ConstantBracket,
    HydroBracket,
    _s_residuals,
)
from hydrobrackets.expr import Expr, parse  # noqa: E402
from hydrobrackets.hierarchy import hierarchy, verify_hierarchy  # noqa: E402

REPEATS = 3
POTENTIALS = {
    3: ("2*u1 - u2 + u3", "u1 + 3*u2", "2*u1 + u2 - u3"),
    4: ("2*u1 - u2 + u3", "u1 + 3*u2 + u4", "2*u1 + u2 - u3", "u4 - u1"),
}
HIERARCHY_ROWS = [(3, levels) for levels in range(4, 9)] + [(4, levels) for levels in range(3, 6)]
RESIDUAL_ROWS = [5, 6, 7]
FAMILIES = ("s1", "s2", "s3", "s4", "s5")


def _best(fn, repeats):
    """(least seconds, value) of ``repeats`` calls of fn()."""
    best, value = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def linear_pair(n: int) -> CanonicalPair:
    vars = tuple(f"u{i + 1}" for i in range(n))
    eta = ConstantBracket([[int(i == j) for j in range(n)] for i in range(n)])
    return CanonicalPair(eta=eta, K=1, H=tuple(parse(h, vars) for h in POTENTIALS[n]), vars=vars)


def hierarchy_row(n: int, levels: int, repeats: int = REPEATS) -> tuple:
    """(generation s, verification s) of the N=n pair to ``levels``."""
    P = linear_pair(n)
    generation, flows = _best(lambda: hierarchy(P, levels), repeats)
    verification, verdicts = _best(lambda: verify_hierarchy(P, flows), repeats)
    if not all(commute and involution for commute, involution in verdicts):
        raise AssertionError(f"N={n} pair at {levels} levels fails verification")
    return generation, verification


def residual_row(n: int, repeats: int = REPEATS) -> tuple:
    """(bracket s, tables ms, {family: ms}) on the canonical metric at N=n."""

    def build():
        con, cov, _ = geometry.canonical_metric(list(range(1, n + 1)), 1)
        return con, geometry.christoffel(cov)

    bracket, (con, conn) = _best(build, repeats)
    tables, families = float("inf"), {name: float("inf") for name in FAMILIES}
    for _ in range(repeats):
        B = HydroBracket(vars=con.vars, g=con.entries, b=conn.b, K=Expr.const(1))
        t0 = time.perf_counter()
        generators = _s_residuals(B)
        tables = min(tables, time.perf_counter() - t0)
        for name, gen in generators:
            t0 = time.perf_counter()
            residuals = list(gen)
            families[name] = min(families[name], time.perf_counter() - t0)
            if any(not e.is_zero() for _, e in residuals):
                raise AssertionError(f"canonical N={n} fails {name}")
    return bracket, tables * 1e3, {name: t * 1e3 for name, t in families.items()}


def main() -> int:
    print("| hierarchy | generation s | verification s |")
    print("|---|---|---|")
    for n, levels in HIERARCHY_ROWS:
        generation, verification = hierarchy_row(n, levels)
        print(f"| N={n} --levels {levels} | {generation:.3f} | {verification:.3f} |", flush=True)
    print()
    columns = ["canonical N", "bracket s", "tables ms"] + [f"{f} ms" for f in FAMILIES]
    print("| " + " | ".join(columns) + " |")
    print("|---" * len(columns) + "|")
    for n in RESIDUAL_ROWS:
        bracket, tables, families = residual_row(n)
        cells = " | ".join(f"{families[f]:.1f}" for f in FAMILIES)
        print(f"| {n} | {bracket:.3f} | {tables:.1f} | {cells} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
