"""Batch command-line front end.

Problem files are JSON documents; rationals may be written as integers,
as terminating decimals (converted exactly), or as strings like "1/3".
Exit codes: 0 all checks passed, 1 a check failed, 2 malformed input,
3 runtime event (gradient catastrophe, recursion leaving the
conservative class).
"""

from __future__ import annotations

import argparse
import collections
import gc
import itertools
import json
import math
import os
import random
import re
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from . import geometry
from .bracket import (
    CanonicalPair,
    ConstantBracket,
    HydroBracket,
    NotLiouvilleError,
    NotSpecialError,
    PoissonReport,
    UnsupportedIntegrandError,
    build_canonical,
    check_compat_constant,
    check_pencil,
    check_poisson,
    equivalence_audit,
    liouville_function,
    special_liouville,
)
from .expr import Expr, ParseError, UnknownVariableError, _Const, _fold_tree, parse
from .hierarchy import ClosednessError, NotPoissonError, hierarchy
from . import numsim
from .poly import ExpressionSizeError, _frac_str

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RUNTIME_EVENT = 3

# the highest level a flow command builds: ten times the deepest hierarchy
# of the benchmark, and a bound on the pairs that hierarchy and commute print
MAX_LEVELS = 100
# the largest grid and the most time steps a problem file may ask for
MAX_GRID_M = 1 << 16
MAX_STEPS = 1 << 20


class ProblemFileError(ValueError):
    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location
        self.message = message


def _rational(text: str) -> Fraction:
    if not text.isascii() or "_" in text:  # as the tokenizer: ASCII digits, no separators
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    limit = sys.get_int_max_str_digits()  # as the tokenizer: refuse a digit run or exponent past it
    for exp, digits in re.findall(r"([eE]?)[-+]?(\d+)", text):
        if limit and (len(digits) > limit or exp and int(digits) > limit):
            raise ValueError(f"number has more than {limit} digits")
    return Fraction(text)


def _as_fraction(x, location: str) -> Fraction:
    if isinstance(x, bool):
        raise ProblemFileError(location, "expected a rational number")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return _rational(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemFileError(location, f"bad rational {x!r}: {exc}") from None
    raise ProblemFileError(location, f"expected a rational number, got {type(x).__name__}")


def _nested(raw, loc: str, messages: tuple, convert, n: int) -> list:
    """An n, n x n or n x n x n block of a problem file, one nesting level
    per entry of ``messages``: each level must be a list of n items, or
    ``messages[depth]`` is raised at its location.  Each leaf becomes
    ``convert(item, location)``.  Rows are read in order, each checked and
    converted before the next, so the first error in reading order wins."""
    if not isinstance(raw, list) or len(raw) != n:
        raise ProblemFileError(loc, messages[0])
    if len(messages) == 1:
        return [convert(x, f"{loc}[{i}]") for i, x in enumerate(raw)]
    return [_nested(x, f"{loc}[{i}]", messages[1:], convert, n) for i, x in enumerate(raw)]


class Problem:
    """Validated content of a problem file, in the field variables
    <prefix>1..<prefix>N.  ``parsed`` is the file's record of the expressions
    parsed so far (see ``_expr``); the ``second`` block shares its primary's."""

    def __init__(self, doc: dict, path: str, prefix: str = "u", parsed: dict | None = None):
        if not isinstance(doc, dict):
            raise ProblemFileError(path, "top level must be a JSON object")
        self.prefix = prefix
        self._parsed = {} if parsed is None else parsed
        n = doc.get("N")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ProblemFileError("N", "a positive integer N is required")
        self.n = n
        self.eta = self._load_eta(doc.get("eta"))
        self.K = Expr.const(_as_fraction(doc["K"], "K")) if "K" in doc else None
        raw_h = doc.get("H")
        self.h = None if raw_h is None else tuple(
            _nested(raw_h, "H", (f"expected {n} expression strings",), self._expr, n)
        )
        self.explicit = self._load_explicit(doc)
        self.canonical_a = self._load_canonical(doc.get("canonical"))
        self.second = doc.get("second")
        self.simulation = self._load_simulation(doc.get("simulation"))
        if sum(x is not None for x in (self.h, self.explicit, self.canonical_a)) > 1:
            raise ProblemFileError("H", 'give exactly one of "H", "g"+"b", "canonical"')

    @cached_property
    def vars(self) -> tuple:
        """The field variable names.  They are first needed after a block has
        matched N by its own length, so an N that no block of the file lists
        is never allocated."""
        return geometry.field_vars(self.n, self.prefix)

    @cached_property
    def _spellings(self) -> tuple:
        """u1..uN, then v1..vN, each mapped to the field variables."""
        return tuple(dict(zip(geometry.field_vars(self.n, p), self.vars)) for p in "uv")

    def _expr(self, text, location: str, initial_data=False):
        """One expression entry: an initial datum in x, or a field entry written
        in u1..uN or else in v1..vN (the later of the two spellings' unknown
        names is reported).  ``self._parsed`` holds what the file has parsed,
        by (text, N, initial-data mode), so a string that recurs in the file
        is parsed once and its entries share one (immutable) result."""
        if isinstance(text, (int, Fraction)) and not isinstance(text, bool):
            return _Const(text) if initial_data else Expr.const(text)
        if not isinstance(text, str):
            raise ProblemFileError(location, "expected an expression string")
        key = (text, self.n, initial_data)
        if key in self._parsed:
            return self._parsed[key]
        unknown = None
        for names in (("x",),) if initial_data else self._spellings:
            try:
                out = parse(text, names, initial_data=initial_data)
                break
            except UnknownVariableError as exc:
                if unknown is None or exc.offset > unknown.offset:
                    unknown = exc
            except ParseError as exc:
                raise ProblemFileError(location, str(exc)) from None
        else:
            raise ProblemFileError(location, str(unknown))
        self._parsed[key] = out
        return out

    def _load_eta(self, raw):
        if raw is None:
            return None
        n = self.n
        rows = _nested(
            raw, "eta", (f"expected an {n}x{n} matrix", f"expected {n} entries"), _as_fraction, n
        )
        try:
            return ConstantBracket(rows)
        except ValueError as exc:
            raise ProblemFileError("eta", str(exc)) from None

    def _load_explicit(self, doc):
        if "g" not in doc and "b" not in doc:
            return None
        if "g" not in doc or "b" not in doc:
            raise ProblemFileError("g", "explicit brackets need both g and b")
        n = self.n
        g = (f"expected {n}x{n} entries", f"expected {n} entries")
        b = (f"expected {n}x{n}x{n} entries", f"expected {n} rows", f"expected {n} entries")
        return _nested(doc["g"], "g", g, self._expr, n), _nested(doc["b"], "b", b, self._expr, n)

    def _load_canonical(self, raw):
        if raw is None:
            return None
        if not isinstance(raw, dict) or "a" not in raw:
            raise ProblemFileError("canonical", 'expected an object {"a": [...]}')
        n = self.n
        return _nested(raw["a"], "canonical.a", (f"expected {n} constants",), _as_fraction, n)

    def _initial_datum(self, text, at):
        """One entry of ``simulation.init``, as its parse tree.  Sampling
        converts each of its constants to a float, so each must lie in the
        float range."""
        datum = self._expr(text, at, initial_data=True)
        try:
            _fold_tree(datum, lambda node, _: isinstance(node, _Const) and float(node.value))
        except OverflowError:
            raise ProblemFileError(at, "a constant exceeds the float range") from None
        return datum

    def _load_simulation(self, raw):
        if raw is None:
            return None
        loc = "simulation"
        if not isinstance(raw, dict):
            raise ProblemFileError(loc, "expected an object")
        for key in ("grid_M", "L", "dt", "t_end", "init"):
            if key not in raw:
                raise ProblemFileError(f"{loc}.{key}", "required for simulations")
        sim = {}
        m = raw["grid_M"]
        if not isinstance(m, int) or isinstance(m, bool):
            raise ProblemFileError(f"{loc}.grid_M", "expected an integer")
        if m < 8 or m & (m - 1):
            raise ProblemFileError(f"{loc}.grid_M", "must be a power of two, at least 8")
        if m > MAX_GRID_M:
            raise ProblemFileError(f"{loc}.grid_M", f"must be at most {MAX_GRID_M}")
        sim["grid_M"] = m
        exact = {key: _as_fraction(raw[key], f"{loc}.{key}") for key in ("L", "dt", "t_end")}
        if exact["t_end"] < 0:
            raise ProblemFileError(f"{loc}.t_end", "must not be negative")
        for key, q in exact.items():
            try:
                sim[key] = float(q)
            except OverflowError:
                raise ProblemFileError(f"{loc}.{key}", "exceeds the float range") from None
            if q > 0 and sim[key] == 0:  # a positive value below the smallest float
                raise ProblemFileError(f"{loc}.{key}", "exceeds the float range")
        for key in ("L", "dt"):
            if exact[key] <= 0:
                raise ProblemFileError(f"{loc}.{key}", "must be positive")
        steps = sim["t_end"] / sim["dt"]
        if steps > MAX_STEPS:
            raise ProblemFileError(
                f"{loc}.dt", f"t_end/dt = {steps:.6g} exceeds {MAX_STEPS} steps"
            )
        sim["init"] = _nested(
            raw["init"],
            f"{loc}.init",
            (f"expected {self.n} expressions in x",),
            self._initial_datum,
            self.n,
        )
        snaps = raw.get("snapshots", [])
        if not isinstance(snaps, list):
            raise ProblemFileError(f"{loc}.snapshots", "expected a list of times")
        sim["snapshots"] = []
        for i, x in enumerate(snaps):
            t = _as_fraction(x, f"{loc}.snapshots[{i}]")
            if not 0 <= t <= exact["t_end"]:
                raise ProblemFileError(
                    f"{loc}.snapshots[{i}]", f"must lie in [0, t_end] = [0, {sim['t_end']:g}]"
                )
            sim["snapshots"].append(float(t))
        return sim

    # -- resolution -----------------------------------------------------

    def require_eta(self) -> ConstantBracket:
        if self.eta is None:
            raise ProblemFileError("eta", "this command needs the constant bracket eta")
        return self.eta

    def require_K(self) -> Expr:
        if self.K is None:
            raise ProblemFileError("K", "this command needs the nonlocal constant K")
        return self.K

    def canonical_pair(self) -> CanonicalPair:
        """The pair of the file's ``H`` or ``canonical`` block.  The family is
        the pair of eta (I if the file gives none) and H^j = a^j eta_{js} u^s / 2:
        eta^{is} dH^j/du^s = a^j delta^{ij} / 2 and d2H = 0 for every eta."""
        if self.canonical_a is None:
            if self.h is None:
                raise ProblemFileError("H", "this command needs the potentials H")
            return CanonicalPair(self.require_eta(), self.require_K(), self.h, self.vars)
        K = self.require_K()
        try:
            a, _ = geometry.canonical_constants(self.canonical_a, K.const_value())
        except ValueError as exc:
            raise ProblemFileError("canonical.a", str(exc)) from None
        n = self.n
        eta = self.eta or ConstantBracket([[int(i == j) for j in range(n)] for i in range(n)])
        lowered = eta.lower([Expr.var(v) for v in self.vars])
        return CanonicalPair(eta, K, [x * (a[j] / 2) for j, x in enumerate(lowered)], self.vars)

    def bracket(self) -> HydroBracket:
        if self.explicit is not None:
            g, b = self.explicit
            return HydroBracket(vars=self.vars, g=g, b=b, K=self.require_K())
        if self.h is None and self.canonical_a is None:
            raise ProblemFileError(
                "H", 'no bracket specified: provide "H", or "g"+"b", or "canonical"'
            )
        return build_canonical(self.canonical_pair())

    def second_bracket(self) -> HydroBracket:
        """Bracket for the second pencil member; defaults to (eta, 0, 0).

        The ``second`` block inherits N, eta and K from the primary where it
        does not give them; its errors are located as ``second.<key>``."""
        if self.second is None:
            return self.require_eta().as_hydro(self.vars)
        if not isinstance(self.second, dict):
            raise ProblemFileError("second", "expected an object")
        sub = dict(self.second)
        sub.setdefault("N", self.n)
        try:
            prob = Problem(sub, "second", self.prefix, self._parsed)
            if prob.n != self.n:
                raise ProblemFileError("N", "dimension mismatch with primary")
            if "eta" not in sub:
                prob.eta = self.eta
            if "K" not in sub:
                prob.K = self.K
            return prob.bracket()
        except ProblemFileError as exc:
            raise ProblemFileError(f"second.{exc.location}", exc.message) from None


def load_initial_state(prob: Problem):
    """The grid and the initial field of the simulation block, sampled on
    it as an array of shape (N, M)."""
    if prob.simulation is None:
        raise ProblemFileError("simulation", "simulate needs a simulation block")
    sim = prob.simulation
    grid = numsim.Grid(sim["grid_M"], sim["L"])
    try:
        return grid, numsim.sample_initial_data(grid, sim["init"])
    except ValueError as exc:
        raise ProblemFileError("simulation.init", str(exc)) from None


def load_problem(path: str, prefix: str = "u") -> Problem:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_rational)
    except OSError as exc:
        raise ProblemFileError(path, f"cannot read file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ProblemFileError(path, f"not UTF-8: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from None
    except ValueError:  # a number past the int limit: json's int() refuses it as _rational does
        limit = sys.get_int_max_str_digits()
        raise ProblemFileError(path, f"number has more than {limit} digits") from None
    except RecursionError:
        raise ProblemFileError(path, "JSON nested too deeply to decode") from None
    return Problem(doc, path, prefix)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _pass(ok) -> str:
    return "PASS" if ok else "FAIL"


def _table(name: str, values, lines: list):
    """``values``, an expression or nested sequences of them, as strings
    nested alike; each string is also added to ``lines`` as
    ``  name[i][j]... = value``, indices 1-based, in row-major order."""
    if not isinstance(values, (list, tuple)):
        text = str(values)
        lines.append(f"  {name} = {text}")
        return text
    return [_table(f"{name}[{i}]", v, lines) for i, v in enumerate(values, 1)]


def _finite(x: float):
    """``x``, or None when it is NaN or infinite: JSON (RFC 8259) has no
    such numbers, and ``JSON.stringify`` writes them as null too."""
    return x if math.isfinite(x) else None


def _emit(args, text_lines, json_obj):
    if args.json:
        print(json.dumps(json_obj, indent=2, sort_keys=True, allow_nan=False))
    else:
        print("\n".join(text_lines))


def _check_result(
    args, header, report: PoissonReport, verdicts, text=(), extra=None, ok=True
) -> int:
    """End a ``check-*`` command.  The text report is ``header``, one line
    per condition (PASS, or FAIL with its witness), ``text`` and the
    verdict; the JSON object holds the conditions, the verdict and
    ``extra``.  ``verdicts`` is the (passed, failed) pair of verdict words.
    The exit code passes when the report and ``ok`` both do."""
    lines, conds = [header], []
    for c in report.conditions:
        entry = {"name": c.name, "status": c.status.value}
        conds.append(entry)
        if c.witness is None:
            lines.append(f"  {c.name}: PASS")
            continue
        w = entry["witness"] = {
            "indices": list(c.witness.indices),
            "point": {k: _frac_str(v) for k, v in sorted(c.witness.point.items())},
            "value": _frac_str(c.witness.value),
        }
        pt = ", ".join(f"{k}={v}" for k, v in w["point"].items())
        lines.append(
            f"  {c.name}: FAIL  witness indices={tuple(w['indices'])} "
            f"point=({pt}) value={w['value']}"
        )
    verdict = verdicts[not report.passed]
    _emit(
        args,
        [*lines, *text, f"verdict: {verdict}"],
        {"command": args.command, "conditions": conds, "verdict": verdict, **(extra or {})},
    )
    return EXIT_PASS if report.passed and ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_check_poisson(args) -> int:
    prob = load_problem(args.file, "u")
    report = check_poisson(prob.bracket(), rng=random.Random(args.seed))
    return _check_result(args, f"check-poisson: N={prob.n}", report, ("POISSON", "NOT POISSON"))


def cmd_check_compat(args) -> int:
    prob = load_problem(args.file, "u")
    report = check_compat_constant(
        prob.bracket(), prob.require_eta(), rng=random.Random(args.seed)
    )
    return _check_result(
        args,
        f"check-compat: N={prob.n} (bracket vs constant eta bracket)",
        report,
        ("COMPATIBLE", "NOT COMPATIBLE"),
    )


def cmd_check_pencil(args) -> int:
    prob = load_problem(args.file, "u")
    report = check_pencil(prob.bracket(), prob.second_bracket(), rng=random.Random(args.seed))
    local = report.extras["local_member"]
    local = local and [_frac_str(x) for x in local]
    return _check_result(
        args,
        f"check-pencil: N={prob.n} (parameter {report.extras['pencil_parameter']})",
        report,
        ("POISSON PENCIL", "NOT A POISSON PENCIL"),
        text=[f"local member: lam0={local[0]}, lam1={local[1]}"] if local else (),
        extra={"local_member": local},
    )


def cmd_check_canonical(args) -> int:
    prob = load_problem(args.file, "u")
    report = equivalence_audit(prob.canonical_pair(), rng=random.Random(args.seed))
    inconsistency = report.extras["inconsistency"]
    audit = "consistent" if inconsistency is None else f"INCONSISTENT: {inconsistency}"
    return _check_result(
        args,
        f"check-canonical: N={prob.n}",
        report,
        ("POISSON", "NOT POISSON"),
        text=[f"equivalence audit: {audit}"],
        extra={"audit": audit},
        ok=inconsistency is None,
    )


def cmd_build_canonical(args) -> int:
    prob = load_problem(args.file, "u")
    B = build_canonical(prob.canonical_pair())
    lines = [f"build-canonical: N={prob.n}"]
    g, b = _table("g", B.g, lines), _table("b", B.b, lines)
    _emit(args, lines, {"command": "build-canonical", "g": g, "b": b, "K": str(B.K)})
    return EXIT_PASS


def cmd_liouville(args) -> int:
    prob = load_problem(args.file, "u")
    B = prob.bracket()
    eta = prob.require_eta()
    try:
        Phi = liouville_function(B)
    except NotLiouvilleError as exc:
        _emit(
            args,
            [f"liouville: NOT LIOUVILLE ({exc})"],
            {"command": "liouville", "verdict": "NotLiouville", "reason": str(exc)},
        )
        return EXIT_CHECK_FAILED
    lines = [f"liouville: N={prob.n}"]
    obj = {"command": "liouville", "Phi": _table("Phi", Phi, lines)}
    try:
        H = special_liouville(Phi, eta, B.vars)
    except NotSpecialError as exc:
        lines.append(f"verdict: LIOUVILLE, NOT SPECIAL ({exc})")
        obj.update(special=False, reason=str(exc))
        _emit(args, lines, obj)
        return EXIT_CHECK_FAILED
    obj.update(special=True, H=_table("H", H, lines))
    lines.append("verdict: SPECIAL LIOUVILLE")
    _emit(args, lines, obj)
    return EXIT_PASS


def _require_level(value: int, option: str) -> None:
    if value < 0:
        raise ProblemFileError(option, "must be a non-negative integer")
    if value > MAX_LEVELS:
        raise ProblemFileError(option, f"must be at most {MAX_LEVELS}")


def _check_out(out: Path) -> None:
    """Refuse ``--out`` before the run when the path, or else the nearest
    path above it that exists, is not a directory.  The directory is made
    only once the run has succeeded, so a refused run leaves none behind."""
    try:
        base = next(p for p in (out, *out.parents) if p.exists())
    except OSError as exc:
        raise ProblemFileError("--out", str(exc)) from None
    if not base.is_dir():
        raise ProblemFileError("--out", f"not a directory: {str(base)!r}")


def _flows(args, zero_gauge=False):
    """The problem, in v1..vN, and its flows at levels 0..``--levels``, for
    the hierarchy and commute commands."""
    _require_level(args.levels, "--levels")
    prob = load_problem(args.file, "v")
    return prob, hierarchy(prob.canonical_pair(), args.levels, zero_gauge)


def cmd_hierarchy(args) -> int:
    prob, flows = _flows(args, args.gauge == "zero")
    lines = [f"hierarchy: N={prob.n}, levels 0..{args.levels}"]
    levels_obj = []
    for level, fl in enumerate(flows):
        lines.append(f"level {level}:")
        levels_obj.append(
            {
                "level": level,
                "F": _table("F", fl.F, lines),
                "S": _table("S", fl.S, lines),
                "V": _table("V", fl.V, lines),
            }
        )
    # every pair commutes and is in involution by construction (hierarchy())
    pairs = list(itertools.combinations(range(len(flows)), 2))
    lines += [f"commute t{a} vs t{b}: PASS" for a, b in pairs]
    lines += [f"involution S{a} vs S{b}: PASS" for a, b in pairs]
    lines.append("verdict: PASS")
    _emit(
        args,
        lines,
        {
            "command": "hierarchy",
            "levels": levels_obj,
            "commutation": [{"levels": ab, "commute": True} for ab in pairs],
            "involution": [{"levels": ab, "involution": True} for ab in pairs],
            "verdict": "PASS",
        },
    )
    return EXIT_PASS


def cmd_simulate(args) -> int:
    import numpy as np  # the symbolic commands never load numpy

    _require_level(args.level, "--level")
    if not args.tol >= 0:
        raise ProblemFileError("--tol", "must be a non-negative number")
    outdir = Path(args.out)
    _check_out(outdir)
    prob = load_problem(args.file, "v")
    grid, v0 = load_initial_state(prob)
    P = prob.canonical_pair()
    flows = hierarchy(P, args.level)
    sim = prob.simulation
    cflow = numsim.compile_flow(flows[args.level], dealias=args.dealias)
    # every state is checked to be finite; a diagnostic that overflows is
    # reported as it is, and a NaN drift fails the tolerance below
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            result = numsim.run(cflow, v0, grid, sim["dt"], sim["t_end"], sim["snapshots"])
        except numsim.CFLError as exc:
            raise ProblemFileError("simulation.dt", str(exc)) from None
        drifts = numsim.drift_summary(cflow, result.rows, grid, v0)
    # times of two steps that :g prints alike are printed exactly, by repr
    short = collections.Counter(f"{t:g}" for t, _ in result.snapshots)
    snap_files = [
        f"snap_{t:g}.csv" if short[f"{t:g}"] == 1 else f"snap_{t!r}.csv" for t, _ in result.snapshots
    ]
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        numsim.write_diagnostics_csv(result.columns, result.rows, outdir / "diag.csv")
        for name, (_, v) in zip(snap_files, result.snapshots):
            numsim.write_snapshot_csv(grid, v, outdir / name)
    except OSError as exc:
        raise ProblemFileError("--out", str(exc)) from None
    lines = [f"simulate: level {args.level} flow, M={grid.m}, t_end={sim['t_end']:g}"]
    lines += [f"  note: {msg}" for msg in result.messages]
    lines += [f"  drift {d.name}: {d.relative:.3e} (initial {d.initial:.6e})" for d in drifts]
    obj = {
        "command": "simulate",
        "status": result.status,
        "drifts": [
            {"name": d.name, "initial": _finite(d.initial), "relative_drift": _finite(d.relative)}
            for d in drifts
        ],
        "diag": str(outdir / "diag.csv"),
        "snapshots": snap_files,
    }
    if result.status == "breaking":
        lines.append(f"verdict: BREAKING at t={result.breaking_time:.6g}")
        obj.update(verdict="BREAKING", breaking_time=_finite(result.breaking_time))
        _emit(args, lines, obj)
        return EXIT_RUNTIME_EVENT
    worst = float(np.max([0.0, *(d.relative for d in drifts)]))  # NaN if any is
    ok = worst < args.tol
    lines.append(
        f"verdict: {_pass(ok)} (worst relative drift {worst:.3e}, tolerance {args.tol:g})"
    )
    obj["verdict"] = _pass(ok)
    _emit(args, lines, obj)
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


def cmd_commute(args) -> int:
    prob, flows = _flows(args)
    lines = [f"commute: N={prob.n}, levels 0..{args.levels}"]
    # the symbolic verdicts hold by construction (hierarchy())
    pairs = list(itertools.combinations(range(len(flows)), 2))
    lines += [f"symbolic t{a} vs t{b}: PASS" for a, b in pairs]
    ok = True
    numeric_obj = None
    if prob.simulation is not None and len(flows) >= 3:
        grid, v = load_initial_state(prob)
        t1, t2 = numsim.compile_flow(flows[1]), numsim.compile_flow(flows[2])
        cd = numsim.commute_check_numeric(t1, t2, grid, v)
        numeric_obj = {
            "defect": _finite(cd.defect),
            "ratio": _finite(cd.ratio),
            "commuting": cd.commuting,
        }
        lines.append(
            f"numeric t1 vs t2: defect={cd.defect:.3e}, halving ratio={cd.ratio:.2f} "
            f"-> {'commuting' if cd.commuting else 'NOT commuting'}"
        )
        ok = cd.commuting
    lines.append(f"verdict: {_pass(ok)}")
    _emit(
        args,
        lines,
        {
            "command": "commute",
            "pairs": [{"levels": ab, "commute": True} for ab in pairs],
            "numeric": numeric_obj,
            "verdict": _pass(ok),
        },
    )
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose every command-line error is one ``input error:`` line
    and exit code 2, as a malformed problem file is."""

    def error(self, message):
        self.exit(EXIT_INPUT_ERROR, f"input error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hydrobrackets",
        description="Verify, construct and simulate nonlocal hydrodynamic-type "
        "bracket structures from JSON problem files.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(name, help, handler):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("file", help="problem file (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    def check(name, help, handler):
        common(name, help, handler).add_argument(
            "--seed", type=int, default=0, help="RNG seed for witness points"
        )

    check("check-poisson", "run the five bracket conditions", cmd_check_poisson)
    check("check-compat", "compatibility with the eta bracket", cmd_check_compat)
    check("check-pencil", "pencil with the 'second' bracket", cmd_check_pencil)
    check("check-canonical", "potential equations + audit", cmd_check_canonical)
    common("build-canonical", "print the generated bracket", cmd_build_canonical)
    common("liouville", "Liouville function and potentials", cmd_liouville)
    p = common("hierarchy", "generate flows and verify them", cmd_hierarchy)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--gauge", choices=("auto", "zero"), default="auto")
    p = common("simulate", "integrate a flow with diagnostics", cmd_simulate)
    p.add_argument(
        "--tol", type=float, default=1e-8, help="relative drift tolerance for PASS"
    )
    p.add_argument("--out", default=".", help="output directory for CSV files")
    p.add_argument("--level", type=int, default=1, help="hierarchy level to run")
    p.add_argument(
        "--dealias", action="store_true", help="apply the 2/3 rule to the right side"
    )
    p = common("commute", "symbolic and numeric commutation checks", cmd_commute)
    p.add_argument("--levels", type=int, default=2)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; send what is left (and the flush at
        # exit) to the null device so the run ends without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_RUNTIME_EVENT
    except (ProblemFileError, UnsupportedIntegrandError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NotPoissonError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ClosednessError as exc:
        print(f"{args.command}: closedness failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_EVENT
    except ExpressionSizeError as exc:
        print(f"{args.command}: expression size limit: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_EVENT
    except numsim.SimulationError as exc:
        print(f"runtime event: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_EVENT


def entry():
    """The process entry point (``python -m hydrobrackets`` and the
    ``hydrobrackets`` script): run :func:`main` and exit with its code.

    The output is complete once ``main`` returns, so every live object is
    moved to the permanent generation first (``gc.freeze``).  Interpreter
    finalization then still flushes the streams, runs ``atexit`` handlers
    and closes files, but its garbage collections no longer traverse the
    heap that numpy and the command left behind.  ``main`` itself leaves
    the collector alone, because tests and tools call it in-process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
