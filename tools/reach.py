"""List the functions of ``src/hydrobrackets`` that no command runs.

    python3 tools/reach.py

Every job of both benchmark workloads at each of ``SEEDS`` (the job lists
come from ``perfbench/workloads.py``, read only), and every command in text
and ``--json`` on ``problems/*.json`` and the fixtures in ``tests/golden/``,
runs in-process through ``cli.main`` under ``sys.settrace``.  Each function
(a ``def`` in ``src/hydrobrackets``) that was never called is printed with
its line count; a nested function is printed only when its enclosing
function ran.  ``ALLOWED`` holds the functions that stay although no command
calls them, each with its reason.  The exit status is 1 when a function that
was never called is not on ``ALLOWED``, or when an entry of ``ALLOWED`` is
stale (its function was called, or is no longer a def); 0 otherwise.
"""

from __future__ import annotations

import ast
import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SRC = HERE / "src" / "hydrobrackets"
sys.path.insert(0, str(HERE / "src"))
sys.path.insert(0, str(HERE / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py, read only)

from hydrobrackets import cli  # noqa: E402

# The seeds at which CI also compares every workload's output with the base
# commit (tools/same_output.py); the job lists are drawn from the seed.
SEEDS = (1, 2)

_TRACER = "a target of perfbench/tracer.py, which looks it up by name"
_FLOW_CHECK = f"no command calls it (the flow commands' pair verdicts hold by construction); {_TRACER}"
_TRACER_CALLEE = "called by a target of perfbench/tracer.py"
_INTERFACE = "interface of a public type (operators, equality, repr) that the tests use"

ALLOWED = {
    "cli.entry": "the process entry point; cli.main is what runs in-process",
    "geometry.christoffel": _TRACER,
    "geometry.canonical_metric": _TRACER,
    "hierarchy.commute_check": _FLOW_CHECK,
    "hierarchy.involution_check": _FLOW_CHECK,
    "geometry._dot": _TRACER_CALLEE,
    "bracket.functional_bracket_density": _TRACER_CALLEE,
    "expr.ParseError.__init__": "raised on a malformed expression; every traced file is well-formed",
    "expr._residue": "asked of each divisor factor of an initial datum; no traced datum divides",
    "bracket._ValueEq.__eq__": _INTERFACE,
    "bracket.PoissonReport.condition": _INTERFACE,
    "expr.Expr.__rsub__": _INTERFACE,
    "expr.Expr.__rtruediv__": _INTERFACE,
    "expr.Expr.__repr__": _INTERFACE,
    "poly.Poly.__hash__": _INTERFACE,
    "poly.Poly.__rsub__": _INTERFACE,
}

SYMBOLIC = [
    "check-poisson", "check-compat", "check-pencil", "check-canonical", "build-canonical", "liouville",
]


def functions() -> list:
    """(module.qualname, file, first line, line count, enclosing function key
    or None) of every def in the package.  The first line is that of the
    code object: the first decorator's, if any."""
    found = []

    def walk(node, module, path, prefix, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{module}.{prefix}{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((key, str(path), first, child.end_lineno - first + 1, outer))
                walk(child, module, path, f"{prefix}{child.name}.", key)
            elif isinstance(child, ast.ClassDef):
                walk(child, module, path, f"{prefix}{child.name}.", outer)
            else:
                walk(child, module, path, prefix, outer)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, path, "", None)
    return found


def jobs(work: Path) -> list:
    """argv lists: both workloads at each seed, then every command on the
    committed problems and the golden fixtures."""
    argvs = []
    for seed in SEEDS:
        for name in sorted(workloads.BUILDERS):
            argvs += [job.argv for job in workloads.build(name, seed, HERE, work / f"{name}-{seed}").jobs]
    files = sorted((HERE / "problems").glob("*.json")) + sorted(
        p for p in (HERE / "tests" / "golden").glob("*.json") if p.name != "exit_codes.json"
    )
    for k, path in enumerate(files):
        out = str(work / "out" / str(k))
        for fmt in ([], ["--json"]):
            argvs += [[cmd, str(path), *fmt] for cmd in SYMBOLIC]
            argvs += [
                ["hierarchy", str(path), "--levels", "3", *fmt],
                ["hierarchy", str(path), "--levels", "3", "--gauge", "zero", *fmt],
                ["commute", str(path), "--levels", "3", *fmt],
                ["simulate", str(path), "--out", out, *fmt],
                ["simulate", str(path), "--out", out, "--dealias", *fmt],
            ]
    return argvs


def trace(argvs: list) -> set:
    """(file, first line) of every code object of the package that was
    called while ``cli.main`` ran the jobs."""
    called = set()
    src = str(SRC)

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(src):
            called.add((code.co_filename, code.co_firstlineno))
        return None  # calls only, no line events

    sink = io.StringIO()
    for argv in argvs:
        sys.settrace(tracer)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cli.main(argv)
        finally:
            sys.settrace(None)
        sink.seek(0)
        sink.truncate()
    return called


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="reach-"))
    try:
        argvs = jobs(work)
        called = trace(argvs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    defs = functions()
    unreached = {key for key, path, first, _, _ in defs if (path, first) not in called}
    shown = [d for d in defs if d[0] in unreached and d[4] not in unreached]
    seeds = ", ".join(map(str, SEEDS))
    print(f"reach: {len(argvs)} in-process jobs, workloads at seeds {seeds}; "
          f"{len(shown)} functions, {sum(d[3] for d in shown)} lines of src/ never called")
    unexplained = 0
    for key, path, first, lines, _ in shown:
        reason = ALLOWED.get(key)
        unexplained += reason is None
        where = f"{Path(path).relative_to(HERE)}:{first}"
        print(f"  {key} ({lines} lines, {where}): {reason or 'NOT ALLOWED'}")
    keys = {d[0] for d in defs}
    stale = 0
    for key in sorted(ALLOWED):
        if key not in keys:
            print(f"  STALE: {key} is allowed but is no longer a def in src/; remove its entry")
        elif key not in unreached:
            print(f"  STALE: {key} is allowed but was called; remove its entry")
        else:
            continue
        stale += 1
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
