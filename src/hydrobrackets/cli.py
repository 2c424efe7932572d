"""Batch command-line front end.

Problem files are JSON documents; rationals may be written as integers,
as terminating decimals (converted exactly), or as strings like "1/3".
Exit codes: 0 all checks passed, 1 a check failed, 2 malformed input,
3 runtime event (gradient catastrophe, recursion leaving the
conservative class).
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import random
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
from .expr import Expr, ParseError, UnknownVariableError, Zeroness, parse
from .hierarchy import (
    ClosednessError,
    NotPoissonError,
    hierarchy,
    verify_hierarchy,
)
from . import numsim
from .poly import ExpressionSizeError

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RUNTIME_EVENT = 3


class ProblemFileError(ValueError):
    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location
        self.message = message


def _as_fraction(x, location: str) -> Fraction:
    if isinstance(x, bool):
        raise ProblemFileError(location, "expected a rational number")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemFileError(location, f"bad rational {x!r}: {exc}") from None
    raise ProblemFileError(location, f"expected a rational number, got {type(x).__name__}")


def _parse_field_expr(text, vars, location: str, parsed: dict, initial_data=False):
    """One expression entry of a problem file.  ``parsed`` holds what the
    file has parsed so far, by (text, variables, initial-data mode), so a
    string that recurs in the file is parsed once and its entries share one
    ``Expr`` (or initial-data tree); both are immutable."""
    if isinstance(text, (int, Fraction)) and not isinstance(text, bool):
        return Expr.const(text)
    if not isinstance(text, str):
        raise ProblemFileError(location, "expected an expression string")
    key = (text, vars, initial_data)
    if key in parsed:
        return parsed[key]
    try:
        out = parse(text, vars, initial_data=initial_data)
    except UnknownVariableError as exc:
        # H and friends may equally be written in v-variables
        alt = [v.replace("u", "v", 1) for v in vars]
        try:
            out = parse(text, alt, initial_data=initial_data).rename(
                dict(zip(alt, vars))
            )
        except UnknownVariableError:
            raise ProblemFileError(location, str(exc)) from None
        except ParseError as retry:
            raise ProblemFileError(location, str(retry)) from None
    except ParseError as exc:
        raise ProblemFileError(location, str(exc)) from None
    parsed[key] = out
    return out


class Problem:
    """Validated content of a problem file.  ``parsed`` is the file's record
    of the expressions parsed so far (see ``_parse_field_expr``); the
    ``second`` block shares its primary's."""

    def __init__(self, doc: dict, path: str, parsed: dict | None = None):
        if not isinstance(doc, dict):
            raise ProblemFileError(path, "top level must be a JSON object")
        self._parsed = {} if parsed is None else parsed
        n = doc.get("N")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ProblemFileError("N", "a positive integer N is required")
        self.n = n
        self.eta = self._load_eta(doc.get("eta"), "eta")
        self.K = (
            Expr.const(_as_fraction(doc["K"], "K")) if "K" in doc else None
        )
        self.h = self._load_h(doc.get("H"), "H")
        self.explicit = self._load_explicit(doc, "")
        self.canonical_a = self._load_canonical(doc.get("canonical"), "canonical")
        self.second = doc.get("second")
        self.simulation = self._load_simulation(doc.get("simulation"))

    @cached_property
    def vars(self) -> tuple:
        """The field variable names u1..uN.  They are first needed after a
        block has matched N by its own length, so an N that no block of the
        file lists is never allocated."""
        return geometry.field_vars(self.n)

    def _load_eta(self, raw, loc):
        if raw is None:
            return None
        if not isinstance(raw, list) or len(raw) != self.n:
            raise ProblemFileError(loc, f"expected an {self.n}x{self.n} matrix")
        rows = []
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != self.n:
                raise ProblemFileError(f"{loc}[{i}]", f"expected {self.n} entries")
            rows.append([_as_fraction(x, f"{loc}[{i}][{j}]") for j, x in enumerate(row)])
        try:
            return ConstantBracket(rows)
        except ValueError as exc:
            raise ProblemFileError(loc, str(exc)) from None

    def _load_h(self, raw, loc):
        if raw is None:
            return None
        if not isinstance(raw, list) or len(raw) != self.n:
            raise ProblemFileError(loc, f"expected {self.n} expression strings")
        return tuple(
            _parse_field_expr(x, self.vars, f"{loc}[{i}]", self._parsed)
            for i, x in enumerate(raw)
        )

    def _load_explicit(self, doc, prefix):
        if "g" not in doc and "b" not in doc:
            return None
        if "g" not in doc or "b" not in doc:
            raise ProblemFileError(prefix + "g", "explicit brackets need both g and b")
        g_raw, b_raw = doc["g"], doc["b"]
        n = self.n
        if not isinstance(g_raw, list) or len(g_raw) != n:
            raise ProblemFileError(prefix + "g", f"expected {n}x{n} entries")
        g = []
        for i, row in enumerate(g_raw):
            if not isinstance(row, list) or len(row) != n:
                raise ProblemFileError(f"{prefix}g[{i}]", f"expected {n} entries")
            g.append(
                [
                    _parse_field_expr(x, self.vars, f"{prefix}g[{i}][{j}]", self._parsed)
                    for j, x in enumerate(row)
                ]
            )
        if not isinstance(b_raw, list) or len(b_raw) != n:
            raise ProblemFileError(prefix + "b", f"expected {n}x{n}x{n} entries")
        b = []
        for i, plane in enumerate(b_raw):
            if not isinstance(plane, list) or len(plane) != n:
                raise ProblemFileError(f"{prefix}b[{i}]", f"expected {n} rows")
            rows = []
            for j, row in enumerate(plane):
                if not isinstance(row, list) or len(row) != n:
                    raise ProblemFileError(f"{prefix}b[{i}][{j}]", f"expected {n} entries")
                rows.append(
                    [
                        _parse_field_expr(
                            x, self.vars, f"{prefix}b[{i}][{j}][{k}]", self._parsed
                        )
                        for k, x in enumerate(row)
                    ]
                )
            b.append(rows)
        return g, b

    def _load_canonical(self, raw, loc):
        if raw is None:
            return None
        if not isinstance(raw, dict) or "a" not in raw:
            raise ProblemFileError(loc, 'expected an object {"a": [...]}')
        a = raw["a"]
        if not isinstance(a, list) or len(a) != self.n:
            raise ProblemFileError(f"{loc}.a", f"expected {self.n} constants")
        return [_as_fraction(x, f"{loc}.a[{i}]") for i, x in enumerate(a)]

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
        if m > numsim.MAX_GRID_M:
            raise ProblemFileError(f"{loc}.grid_M", f"must be at most {numsim.MAX_GRID_M}")
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
        if steps > numsim.MAX_STEPS:
            raise ProblemFileError(
                f"{loc}.dt", f"t_end/dt = {steps:.6g} exceeds {numsim.MAX_STEPS} steps"
            )
        init = raw["init"]
        if not isinstance(init, list) or len(init) != self.n:
            raise ProblemFileError(f"{loc}.init", f"expected {self.n} expressions in x")
        sim["init"] = [
            _parse_field_expr(x, ("x",), f"{loc}.init[{i}]", self._parsed, initial_data=True)
            for i, x in enumerate(init)
        ]
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
        if self.h is None:
            raise ProblemFileError("H", "this command needs the potentials H")
        return CanonicalPair(
            eta=self.require_eta(), K=self.require_K(), H=self.h, vars=self.vars
        )

    def bracket(self) -> HydroBracket:
        given = [x is not None for x in (self.h, self.explicit, self.canonical_a)]
        if sum(given) == 0:
            raise ProblemFileError(
                "H", 'no bracket specified: provide "H", or "g"+"b", or "canonical"'
            )
        if sum(given) > 1:
            raise ProblemFileError(
                "H", 'give exactly one of "H", "g"+"b", "canonical"'
            )
        if self.h is not None:
            return build_canonical(self.canonical_pair())
        K = self.require_K()
        if self.explicit is not None:
            g, b = self.explicit
            return HydroBracket(vars=self.vars, g=g, b=b, K=K)
        try:
            a, _ = geometry.canonical_constants(self.canonical_a, K.const_value())
        except ValueError as exc:
            raise ProblemFileError("canonical.a", str(exc)) from None
        # g^{ij} = a^i delta^{ij} - K u^i u^j is the canonical pair of
        # eta = I and H^j = a^j u^j / 2, whose b is its Levi-Civita connection
        n = self.n
        identity = ConstantBracket([[int(i == j) for j in range(n)] for i in range(n)])
        H = tuple(Expr.var(v) * (a[j] / 2) for j, v in enumerate(self.vars))
        return build_canonical(CanonicalPair(eta=identity, K=K, H=H, vars=self.vars))

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
            prob = Problem(sub, "second", self._parsed)
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
    """The grid and the sampled initial data of the simulation block."""
    if prob.simulation is None:
        raise ProblemFileError("simulation", "simulate needs a simulation block")
    sim = prob.simulation
    grid = numsim.Grid(sim["grid_M"], sim["L"])
    try:
        return grid, numsim.sample_initial_data(grid, sim["init"])
    except ValueError as exc:
        raise ProblemFileError("simulation.init", str(exc)) from None


def load_problem(path: str) -> Problem:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=Fraction)
    except OSError as exc:
        raise ProblemFileError(path, f"cannot read file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ProblemFileError(path, f"not UTF-8: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from None
    except RecursionError:
        raise ProblemFileError(path, "JSON nested too deeply to decode") from None
    return Problem(doc, path)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _witness_dict(w):
    return {
        "indices": list(w.indices),
        "point": {k: str(v) for k, v in sorted(w.point.items())},
        "value": str(w.value),
    }


def _report_lines(report: PoissonReport, out, as_json):
    conds = []
    for c in report.conditions:
        entry = {"name": c.name, "status": c.status.value}
        if c.witness is not None:
            entry["witness"] = _witness_dict(c.witness)
        conds.append(entry)
        if not as_json:
            if c.status is Zeroness.NONZERO:
                w = entry["witness"]
                pt = ", ".join(f"{k}={v}" for k, v in w["point"].items())
                out.append(
                    f"  {c.name}: FAIL  witness indices={tuple(w['indices'])} "
                    f"point=({pt}) value={w['value']}"
                )
            else:
                out.append(f"  {c.name}: PASS")
    return conds


def _emit(args, text_lines, json_obj):
    if args.json:
        print(json.dumps(json_obj, indent=2, sort_keys=True, default=str))
    else:
        print("\n".join(text_lines))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_check_poisson(args) -> int:
    prob = load_problem(args.file)
    B = prob.bracket()
    report = check_poisson(B, rng=random.Random(args.seed))
    lines = [f"check-poisson: N={prob.n}"]
    conds = _report_lines(report, lines, args.json)
    verdict = "POISSON" if report.passed else "NOT POISSON"
    lines.append(f"verdict: {verdict}")
    _emit(args, lines, {"command": "check-poisson", "conditions": conds, "verdict": verdict})
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


def cmd_check_compat(args) -> int:
    prob = load_problem(args.file)
    B = prob.bracket()
    report = check_compat_constant(
        B, prob.require_eta(), rng=random.Random(args.seed)
    )
    lines = [f"check-compat: N={prob.n} (bracket vs constant eta bracket)"]
    conds = _report_lines(report, lines, args.json)
    verdict = "COMPATIBLE" if report.passed else "NOT COMPATIBLE"
    lines.append(f"verdict: {verdict}")
    _emit(args, lines, {"command": "check-compat", "conditions": conds, "verdict": verdict})
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


def cmd_check_pencil(args) -> int:
    prob = load_problem(args.file)
    B1 = prob.bracket()
    B2 = prob.second_bracket()
    report = check_pencil(B1, B2, rng=random.Random(args.seed))
    lines = [f"check-pencil: N={prob.n} (parameter {report.extras['pencil_parameter']})"]
    conds = _report_lines(report, lines, args.json)
    verdict = "POISSON PENCIL" if report.passed else "NOT A POISSON PENCIL"
    local = report.extras["local_member"]
    if local is not None and not args.json:
        lines.append(f"local member: lam0={local[0]}, lam1={local[1]}")
    lines.append(f"verdict: {verdict}")
    _emit(
        args,
        lines,
        {
            "command": "check-pencil",
            "conditions": conds,
            "verdict": verdict,
            "local_member": [str(x) for x in local] if local else None,
        },
    )
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


def cmd_check_canonical(args) -> int:
    prob = load_problem(args.file)
    result = equivalence_audit(prob.canonical_pair(), rng=random.Random(args.seed))
    report = result.equations
    lines = [f"check-canonical: N={prob.n}"]
    conds = _report_lines(report, lines, args.json)
    audit = (
        "consistent" if result.consistent else f"INCONSISTENT: {result.inconsistency}"
    )
    verdict = "POISSON" if report.passed else "NOT POISSON"
    lines.append(f"equivalence audit: {audit}")
    lines.append(f"verdict: {verdict}")
    _emit(
        args,
        lines,
        {"command": "check-canonical", "conditions": conds, "verdict": verdict, "audit": audit},
    )
    return EXIT_PASS if report.passed and result.consistent else EXIT_CHECK_FAILED


def cmd_build_canonical(args) -> int:
    prob = load_problem(args.file)
    B = build_canonical(prob.canonical_pair())
    n = prob.n
    lines = [f"build-canonical: N={n}"]
    g = [[str(B.g[i][j]) for j in range(n)] for i in range(n)]
    b = [[[str(B.b[i][j][k]) for k in range(n)] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            lines.append(f"  g[{i + 1}][{j + 1}] = {g[i][j]}")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lines.append(f"  b[{i + 1}][{j + 1}][{k + 1}] = {b[i][j][k]}")
    _emit(args, lines, {"command": "build-canonical", "g": g, "b": b, "K": str(B.K)})
    return EXIT_PASS


def cmd_liouville(args) -> int:
    prob = load_problem(args.file)
    B = prob.bracket()
    eta = prob.require_eta()
    n = prob.n
    try:
        data = special_liouville(B, eta)
        special = True
        note = ""
    except NotSpecialError as exc:
        data = liouville_function(B)
        special = False
        note = str(exc)
    except NotLiouvilleError as exc:
        _emit(
            args,
            [f"liouville: NOT LIOUVILLE ({exc})"],
            {"command": "liouville", "verdict": "NotLiouville", "reason": str(exc)},
        )
        return EXIT_CHECK_FAILED
    lines = [f"liouville: N={n}"]
    phi = [[str(data.Phi[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            lines.append(f"  Phi[{i + 1}][{j + 1}] = {phi[i][j]}")
    obj = {"command": "liouville", "Phi": phi, "special": special}
    if special:
        hs = [str(h) for h in data.H]
        for j in range(n):
            lines.append(f"  H[{j + 1}] = {hs[j]}")
        lines.append("verdict: SPECIAL LIOUVILLE")
        obj["H"] = hs
    else:
        lines.append(f"verdict: LIOUVILLE, NOT SPECIAL ({note})")
        obj["reason"] = note
    _emit(args, lines, obj)
    return EXIT_PASS if special else EXIT_CHECK_FAILED


def _gauges_for(args, levels):
    if args.gauge == "zero":
        return [None] * levels
    return None  # library default: gradient gauge at level 1, zero after


def _require_level(value: int, option: str) -> None:
    if value < 0:
        raise ProblemFileError(option, "must be a non-negative integer")


def cmd_hierarchy(args) -> int:
    _require_level(args.levels, "--levels")
    prob = load_problem(args.file)
    P = prob.canonical_pair()
    flows = hierarchy(P, args.levels, gauges=_gauges_for(args, args.levels))
    n = prob.n
    lines = [f"hierarchy: N={n}, levels 0..{args.levels}"]
    levels_obj = []
    for fl in flows:
        entry = {
            "level": fl.level,
            "F": [str(x) for x in fl.F],
            "S": str(fl.S),
            "V": [[str(fl.V[i][k]) for k in range(n)] for i in range(n)],
        }
        levels_obj.append(entry)
        lines.append(f"level {fl.level}:")
        for i in range(n):
            lines.append(f"  F[{i + 1}] = {entry['F'][i]}")
        lines.append(f"  S = {entry['S']}")
        for i in range(n):
            for k in range(n):
                lines.append(f"  V[{i + 1}][{k + 1}] = {entry['V'][i][k]}")
    pairs = list(zip(itertools.combinations(flows, 2), verify_hierarchy(P, flows)))
    commute_obj, involution_obj = [], []
    for (fa, fb), (ok, _) in pairs:
        commute_obj.append({"levels": [fa.level, fb.level], "commute": ok})
        lines.append(f"commute t{fa.level} vs t{fb.level}: {'PASS' if ok else 'FAIL'}")
    for (fa, fb), (_, ok) in pairs:
        involution_obj.append({"levels": [fa.level, fb.level], "involution": ok})
        lines.append(f"involution S{fa.level} vs S{fb.level}: {'PASS' if ok else 'FAIL'}")
    all_ok = all(c and i for _, (c, i) in pairs)
    lines.append(f"verdict: {'PASS' if all_ok else 'FAIL'}")
    _emit(
        args,
        lines,
        {
            "command": "hierarchy",
            "levels": levels_obj,
            "commutation": commute_obj,
            "involution": involution_obj,
            "verdict": "PASS" if all_ok else "FAIL",
        },
    )
    return EXIT_PASS if all_ok else EXIT_CHECK_FAILED


def cmd_simulate(args) -> int:
    _require_level(args.level, "--level")
    prob = load_problem(args.file)
    grid, state0 = load_initial_state(prob)
    P = prob.canonical_pair()
    flows = hierarchy(P, args.level)
    sim = prob.simulation
    cflow = numsim.compile_flow(flows[args.level], dealias=args.dealias)
    try:
        result = numsim.run(
            cflow, state0.v, grid, sim["dt"], sim["t_end"], sim["snapshots"]
        )
    except numsim.CFLError as exc:
        raise ProblemFileError("simulation.dt", str(exc)) from None
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    numsim.write_diagnostics_csv(result.rows, outdir / "diag.csv")
    snap_files = []
    for t, v in result.snapshots:
        name = f"snap_{t:g}.csv"
        numsim.write_snapshot_csv(grid, v, outdir / name)
        snap_files.append(name)
    drifts = numsim.drift_summary(cflow, result.rows, state0)
    lines = [f"simulate: level {args.level} flow, M={grid.m}, t_end={sim['t_end']:g}"]
    for msg in result.messages:
        lines.append(f"  note: {msg}")
    worst = 0.0
    drift_obj = []
    for d in drifts:
        worst = max(worst, d.relative)
        drift_obj.append(
            {"name": d.name, "initial": d.initial, "relative_drift": d.relative}
        )
        lines.append(f"  drift {d.name}: {d.relative:.3e} (initial {d.initial:.6e})")
    obj = {
        "command": "simulate",
        "status": result.status,
        "drifts": drift_obj,
        "diag": str(outdir / "diag.csv"),
        "snapshots": snap_files,
    }
    if result.status == "breaking":
        lines.append(f"verdict: BREAKING at t={result.breaking_time:.6g}")
        obj["breaking_time"] = result.breaking_time
        _emit(args, lines, obj)
        return EXIT_RUNTIME_EVENT
    ok = worst < args.tol
    lines.append(
        f"verdict: {'PASS' if ok else 'FAIL'} (worst relative drift {worst:.3e}, "
        f"tolerance {args.tol:g})"
    )
    obj["verdict"] = "PASS" if ok else "FAIL"
    _emit(args, lines, obj)
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


def cmd_commute(args) -> int:
    _require_level(args.levels, "--levels")
    prob = load_problem(args.file)
    P = prob.canonical_pair()
    flows = hierarchy(P, args.levels)
    lines = [f"commute: N={prob.n}, levels 0..{args.levels}"]
    all_ok = True
    pair_obj = []
    pairs = zip(itertools.combinations(flows, 2), verify_hierarchy(P, flows))
    for (fa, fb), (ok, _) in pairs:
        all_ok = all_ok and ok
        pair_obj.append({"levels": [fa.level, fb.level], "commute": ok})
        lines.append(f"symbolic t{fa.level} vs t{fb.level}: {'PASS' if ok else 'FAIL'}")
    numeric_obj = None
    if prob.simulation is not None and len(flows) >= 3:
        _, state = load_initial_state(prob)
        cd = numsim.commute_check_numeric(flows[1], flows[2], state)
        numeric_obj = {
            "defect": cd.defect,
            "ratio": cd.ratio,
            "commuting": cd.commuting,
        }
        lines.append(
            f"numeric t1 vs t2: defect={cd.defect:.3e}, halving ratio={cd.ratio:.2f} "
            f"-> {'commuting' if cd.commuting else 'NOT commuting'}"
        )
        all_ok = all_ok and cd.commuting
    lines.append(f"verdict: {'PASS' if all_ok else 'FAIL'}")
    _emit(
        args,
        lines,
        {
            "command": "commute",
            "pairs": pair_obj,
            "numeric": numeric_obj,
            "verdict": "PASS" if all_ok else "FAIL",
        },
    )
    return EXIT_PASS if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hydrobrackets",
        description="Verify, construct and simulate nonlocal hydrodynamic-type "
        "bracket structures from JSON problem files.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="problem file (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    def check(name, help):
        common(sub.add_parser(name, help=help)).add_argument(
            "--seed", type=int, default=0, help="RNG seed for witness points"
        )

    check("check-poisson", "run the five bracket conditions")
    check("check-compat", "compatibility with the eta bracket")
    check("check-pencil", "pencil with the 'second' bracket")
    check("check-canonical", "potential equations + audit")
    common(sub.add_parser("build-canonical", help="print the generated bracket"))
    common(sub.add_parser("liouville", help="Liouville function and potentials"))
    p = common(sub.add_parser("hierarchy", help="generate flows and verify them"))
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--gauge", choices=("auto", "zero"), default="auto")
    p = common(sub.add_parser("simulate", help="integrate a flow with diagnostics"))
    p.add_argument(
        "--tol", type=float, default=1e-8, help="relative drift tolerance for PASS"
    )
    p.add_argument("--out", default=".", help="output directory for CSV files")
    p.add_argument("--level", type=int, default=1, help="hierarchy level to run")
    p.add_argument(
        "--dealias", action="store_true", help="apply the 2/3 rule to the right side"
    )
    p = common(sub.add_parser("commute", help="symbolic and numeric commutation checks"))
    p.add_argument("--levels", type=int, default=2)
    return ap


_HANDLERS = {
    "check-poisson": cmd_check_poisson,
    "check-compat": cmd_check_compat,
    "check-pencil": cmd_check_pencil,
    "check-canonical": cmd_check_canonical,
    "build-canonical": cmd_build_canonical,
    "liouville": cmd_liouville,
    "hierarchy": cmd_hierarchy,
    "simulate": cmd_simulate,
    "commute": cmd_commute,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
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
