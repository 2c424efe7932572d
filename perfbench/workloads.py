"""Seeded workloads: problem files, the job list, and each job's known answer.

A job is one ``hydrobrackets <command> <problem.json> ...`` invocation.  The
problem files are generated from the seed into the run's work directory; the
program sees only those files and the committed ``problems/*.json``.  Every
job carries a check that compares its exit code and output with an answer
derived in :mod:`oracle`, never with the program's own results.

The traffic is valid input only, with CFL-admissible time steps.  Exit codes
for malformed input and the simulator's CFL-versus-breaking classification
are correctness defects tracked by the test suite; no workload exercises or
avoids them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

TWO_PI = 6.283185307179586


@dataclass
class Job:
    label: str
    argv: list  # arguments after the program name
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> failure or None
    out: Path | None = None  # output directory, emptied before every run
    units: int = 0  # grid points x time steps, for simulate jobs


@dataclass
class Workload:
    name: str
    jobs: list
    files: list = field(default_factory=list)  # every problem file the jobs read


# ---------------------------------------------------------------------------
# random data
# ---------------------------------------------------------------------------


def _nonzero_rational(rng, top=3, den=2) -> Fraction:
    """p/q with 0 < |p| <= top, 1 <= q <= den: small sizes keep the cost of
    exact arithmetic close from seed to seed."""
    return Fraction(rng.choice([x for x in range(-top, top + 1) if x]), rng.randint(1, den))


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _linear_potentials(rng, n, top):
    """Integer linear H^i = c_ij u^j.  Draws where c_ij + c_ji or (off the
    diagonal) c_ij - c_ji vanishes are redrawn: they drop whole monomial
    families from the flows and would make the cost jump between seeds."""
    while True:
        c = [[rng.choice([x for x in range(-top, top + 1) if x]) for _ in range(n)] for _ in range(n)]
        if all(c[i][j] + c[j][i] for i in range(n) for j in range(n)) and all(
            c[i][j] - c[j][i] for i in range(n) for j in range(n) if i != j
        ):
            return [" + ".join(f"({c[i][j]})*u{j + 1}" for j in range(n)) for i in range(n)]


def _write(work: Path, name: str, doc: dict) -> Path:
    path = work / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1))
    return path


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _expect_pass(verdict):
    """Exit 0 with this verdict and every condition Zero."""

    def check(rc, stdout):
        if rc != 0:
            return f"exit {rc}, expected 0"
        doc = json.loads(stdout)
        if doc["verdict"] != verdict:
            return f"verdict {doc['verdict']!r}, expected {verdict!r}"
        bad = [c["name"] for c in doc["conditions"] if c["status"] != "Zero"]
        return f"conditions not Zero: {bad}" if bad else None

    return check


def _check_mismatch(a, Kg, K):
    """K != K_g: s1-s3 pass, s4 fails with witness value
    (K_g - K)(delta_jk g^{ir} - delta_rk g^{ij})."""

    def check(rc, stdout):
        if rc != 1:
            return f"exit {rc}, expected 1"
        doc = json.loads(stdout)
        if doc["verdict"] != "NOT POISSON":
            return f"verdict {doc['verdict']!r}"
        conds = {c["name"]: c for c in doc["conditions"]}
        for name in ("s1", "s2", "s3"):
            if conds[name]["status"] != "Zero":
                return f"{name} is {conds[name]['status']}"
        s4 = conds["s4"]
        if s4["status"] != "NonZero":
            return f"s4 is {s4['status']}"
        w = s4["witness"]
        point = {k: Fraction(v) for k, v in w["point"].items()}
        want = oracle.s4_defect(a, Kg, K, w["indices"], point)
        if want == 0 or Fraction(w["value"]) != want:
            return f"s4 witness value {w['value']} at {w['indices']}, expected {want}"
        return None

    return check


def _check_build(H, eta, K, probes):
    n = len(H)

    def check(rc, stdout):
        if rc != 0:
            return f"exit {rc}"
        doc = json.loads(stdout)
        for point in probes:
            g, b = oracle.canonical_bracket(H, eta, K, point)
            for i in range(n):
                for j in range(n):
                    if oracle.evaluate(doc["g"][i][j], point) != g[i][j]:
                        return f"g[{i + 1}][{j + 1}] differs from the closed form"
                    for k in range(n):
                        if oracle.evaluate(doc["b"][i][j][k], point) != b[i][j][k]:
                            return f"b[{i + 1}][{j + 1}][{k + 1}] differs from the closed form"
        return None

    return check


def _check_liouville(H, probes):
    def check(rc, stdout):
        if rc != 0:
            return f"exit {rc}"
        doc = json.loads(stdout)
        if doc.get("special") is not True:
            return "not special Liouville"
        for point in probes:
            want = oracle.special_liouville_potentials(H, point)
            got = [oracle.evaluate(h, point) for h in doc["H"]]
            if got != want:
                return f"recovered H {got} != {want}"
        return None

    return check


def _check_hierarchy(levels, hopf_probes=()):
    def check(rc, stdout):
        if rc != 0:
            return f"exit {rc}"
        doc = json.loads(stdout)
        if doc["verdict"] != "PASS":
            return f"verdict {doc['verdict']!r}"
        if [x["level"] for x in doc["levels"]] != list(range(levels + 1)):
            return "wrong level list"
        pairs = levels * (levels + 1) // 2
        if len(doc["commutation"]) != pairs or len(doc["involution"]) != pairs:
            return "missing pairwise checks"
        if not all(x["commute"] for x in doc["commutation"]):
            return "a commutation check failed"
        if not all(x["involution"] for x in doc["involution"]):
            return "an involution check failed"
        for point in hopf_probes:
            for level, (coef, power) in oracle.HOPF_V.items():
                if level > levels:
                    break
                got = oracle.evaluate(doc["levels"][level]["V"][0][0], point)
                if got != coef * point["v1"] ** power:
                    return f"Hopf V at level {level} is not {coef} v^{power}"
        return None

    return check


def _check_simulate(out: Path, steps: int, t_end: float, hopf_amplitude=None, level=1):
    """Completed, PASS, no CFL warning, one diagnostics row per step; for
    Hopf data the final snapshot matches the characteristics solution."""

    def check(rc, stdout):
        if rc != 0:
            return f"exit {rc}"
        lines = stdout.splitlines()
        if "CFL" in stdout or "BREAKING" in stdout:
            return "CFL warning or breaking reported"
        if not lines or not lines[-1].startswith("verdict: PASS"):
            return f"last line {lines[-1] if lines else ''!r}"
        rows = (out / "diag.csv").read_text().count("\n") - 1
        if rows != steps + 1:
            return f"{rows} diagnostics rows, expected {steps + 1}"
        if hopf_amplitude is not None:
            snap = out / f"snap_{t_end:g}.csv"
            x, v = np.loadtxt(snap, delimiter=",", skiprows=1, unpack=True)
            want = oracle.hopf_characteristics(x, hopf_amplitude, level, t_end)
            err = float(np.max(np.abs(v - want)))
            if not err <= HOPF_TOLERANCE * hopf_amplitude:
                return f"Hopf snapshot off the characteristics solution by {err:.3e}"
        return None

    return check


# max |v - v_characteristics| relative to the amplitude; RK4 plus Fourier
# differentiation on these smooth, pre-breaking solutions stays near 1e-9
HOPF_TOLERANCE = 1e-6


# ---------------------------------------------------------------------------
# the workloads: exact (verdict jobs, then hierarchy jobs) and simulate
# ---------------------------------------------------------------------------


def _probes(rng, n, k=2, prefix="u"):
    return [oracle.field_point(n, rng, prefix) for _ in range(k)]


def _verdict_jobs(rng, root: Path, work: Path):
    """Exact rational-function verdicts: check-poisson, -pencil, -compat,
    -canonical, build-canonical, liouville.  Returns (jobs, files)."""
    jobs, files = [], []
    committed = root / "problems"
    cm = committed / "canonical_metric_n2.json"
    files.append(cm)
    for cmd, verdict in (
        ("check-poisson", "POISSON"),
        ("check-compat", "COMPATIBLE"),
        ("check-pencil", "POISSON PENCIL"),
    ):
        jobs.append(Job(f"{cmd} canonical_metric_n2", [cmd, str(cm), "--json"], _expect_pass(verdict)))
    for stem in ("linear_pair_n2", "scalar_shallow"):
        path = committed / f"{stem}.json"
        files.append(path)
        doc = json.loads(path.read_text())
        H, eta, K = doc["H"], doc["eta"], Fraction(doc["K"])
        for cmd, verdict in (
            ("check-poisson", "POISSON"),
            ("check-compat", "COMPATIBLE"),
            ("check-pencil", "POISSON PENCIL"),
            ("check-canonical", "POISSON"),
        ):
            jobs.append(Job(f"{cmd} {stem}", [cmd, str(path), "--json"], _expect_pass(verdict)))
        probes = _probes(rng, doc["N"])
        jobs.append(
            Job(f"build-canonical {stem}", ["build-canonical", str(path), "--json"], _check_build(H, eta, K, probes))
        )
        jobs.append(Job(f"liouville {stem}", ["liouville", str(path), "--json"], _check_liouville(H, probes)))

    for k, n in enumerate(VERDICTS_FAMILIES):
        K = _nonzero_rational(rng)
        a = [_nonzero_rational(rng) for _ in range(n)]
        doc = {"N": n, "eta": _identity(n), "K": str(K), "canonical": {"a": [str(x) for x in a]}}
        path = _write(work, f"canonical{k}_n{n}", doc)
        files.append(path)
        # g + lam*eta stays in the family with a^i + lam, so the pencil with
        # the eta bracket is Poisson and the pair is compatible
        for cmd, verdict in (("check-poisson", "POISSON"), ("check-pencil", "POISSON PENCIL"), ("check-compat", "COMPATIBLE")):
            jobs.append(Job(f"{cmd} canonical N={n}", [cmd, str(path), "--json"], _expect_pass(verdict)))
        a[rng.randrange(n)] = Fraction(0)
        doc = {"N": n, "eta": _identity(n), "K": str(K), "canonical": {"a": [str(x) for x in a]}}
        path = _write(work, f"canonical{k}_degenerate_n{n}", doc)
        files.append(path)
        jobs.append(
            Job(f"check-poisson degenerate N={n}", ["check-poisson", str(path), "--json"], _expect_pass("POISSON"))
        )

    for n in (5, 6):
        a = [_nonzero_rational(rng) for _ in range(n)]
        Kg = _nonzero_rational(rng)
        g = [
            [(f"{a[i]}" if i == j else "0") + f" - ({Kg})*u{i + 1}*u{j + 1}" for j in range(n)]
            for i in range(n)
        ]
        b = [
            [[f"-({Kg})*u{j + 1}" if i == k else "0" for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
        K_other = Kg + _nonzero_rational(rng)
        for tail, tag in ((Kg, "pass"), (K_other, "mismatch")):
            doc = {"N": n, "K": str(tail), "g": g, "b": b}
            path = _write(work, f"explicit_n{n}_{tag}", doc)
            files.append(path)
            check = _expect_pass("POISSON") if tail == Kg else _check_mismatch(a, Kg, tail)
            jobs.append(Job(f"check-poisson explicit N={n} {tag}", ["check-poisson", str(path), "--json"], check))
    return jobs, files


def _hopf_doc():
    return {"N": 1, "eta": [[1]], "K": 0, "H": ["u1^2/2"]}


def _pair_doc(rng, n, top):
    return {"N": n, "eta": _identity(n), "K": str(_nonzero_rational(rng)), "H": _linear_potentials(rng, n, top)}


def _hierarchy_jobs(rng, work: Path):
    """Polynomial-only exact work: generation plus pairwise commutation and
    involution verification of the flows.  Returns (jobs, files)."""
    jobs, files = [], []
    path = _write(work, "hopf", _hopf_doc())
    files.append(path)
    probes = _probes(rng, 1, prefix="v")
    for levels in HIERARCHY_HOPF_LEVELS:
        jobs.append(
            Job(
                f"hierarchy hopf L={levels}",
                ["hierarchy", str(path), "--levels", str(levels), "--json"],
                _check_hierarchy(levels, probes),
            )
        )
    for k, (n, levels) in enumerate(HIERARCHY_PAIRS):
        doc = _pair_doc(rng, n, 3)
        path = _write(work, f"pair{k}_n{n}", doc)
        files.append(path)
        jobs.append(
            Job(
                f"hierarchy N={n} L={levels}",
                ["hierarchy", str(path), "--levels", str(levels), "--json"],
                _check_hierarchy(levels),
            )
        )
        if n <= 3:
            H, eta, K = doc["H"], doc["eta"], Fraction(doc["K"])
            check = _check_build(H, eta, K, _probes(rng, n))
            jobs.append(Job(f"build-canonical pair N={n}", ["build-canonical", str(path), "--json"], check))
    return jobs, files


def exact(rng, root: Path, work: Path) -> Workload:
    """The exact core: rational-function verdicts, then polynomial-only
    hierarchy generation and verification."""
    v_jobs, v_files = _verdict_jobs(rng, root, work)
    h_jobs, h_files = _hierarchy_jobs(rng, work)
    return Workload("exact", v_jobs + h_jobs, v_files + h_files)


def simulate(rng, root: Path, work: Path) -> Workload:
    """Pseudo-spectral integration of generated flows: RHS evaluators, FFTs,
    per-step diagnostics and CSV output."""
    jobs, files = [], []

    def add(label, doc, init, level, m, dt, steps, hopf_amplitude=None):
        t_end = str(Fraction(dt) * steps)
        sim = {"grid_M": m, "L": TWO_PI, "dt": dt, "t_end": t_end, "init": init, "snapshots": [t_end]}
        path = _write(work, label, dict(doc, simulation=sim))
        files.append(path)
        out = work / "out" / label
        check = _check_simulate(out, steps, float(Fraction(t_end)), hopf_amplitude, level)
        argv = ["simulate", str(path), "--level", str(level), "--out", str(out)]
        jobs.append(Job(f"simulate {label}", argv, check, out=out, units=m * steps))

    for k in range(max(pairs for _, _, pairs in SIM_PAIR_STEP.values())):
        pair = _pair_doc(rng, 2, 2)
        init = [f"{rng.choice(PAIR_AMPLITUDES)}*sin(x)", f"{rng.choice(PAIR_AMPLITUDES)}*cos(x) + 0.02*sin(2*x)"]
        for (level, m), (dt, steps, pairs) in SIM_PAIR_STEP.items():
            if k < pairs:
                add(f"pair{k}_l{level}_m{m}", pair, init, level, m, dt, steps)
    for k, amplitude in enumerate(rng.sample(HOPF_AMPLITUDES, SIM_HOPF_RUNS)):
        for (level, m), (dt, steps) in SIM_HOPF_STEP.items():
            add(f"hopf{k}_l{level}_m{m}", _hopf_doc(), [f"{amplitude}*sin(x)"], level, m, dt, steps, float(amplitude))
    # the committed problems at their own settings (level 1); scalar_shallow
    # is Hopf data 0.1 sin(x)
    for stem, hopf_amp in (("scalar_shallow", 0.1), ("linear_pair_n2", None)):
        path = root / "problems" / f"{stem}.json"
        files.append(path)
        sim = json.loads(path.read_text())["simulation"]
        out = work / "out" / stem
        t_end = Fraction(str(sim["t_end"]))
        steps = round(t_end / Fraction(str(sim["dt"])))
        t_end = float(t_end)
        argv = ["simulate", str(path), "--out", str(out)]
        jobs.append(
            Job(f"simulate {stem}", argv, _check_simulate(out, steps, t_end, hopf_amp, 1), out=out, units=sim["grid_M"] * steps)
        )
    return Workload("simulate", jobs, files)


# -- sizing --------------------------------------------------------------------
# Each workload is sized so that one pass over its jobs takes 40-55 s on a
# 2-core x86 VM at this commit.  The job sizes are chosen so that the median
# job and the job_tail_s rank (the 11th-slowest) each fall inside a group of
# jobs of similar cost rather than on a step between two groups, where one
# job more or less on either side would move the metric by the step.  The
# short startup-bound jobs are more than half of each list, and the tail
# rank lies in the middle of a group of ten or more similar jobs: on exact,
# the ten N = 4, L = 2 hierarchies with the N = 5, 6 verdicts; on simulate,
# the ten level-2, M = 512 pair runs.

VERDICTS_FAMILIES = (2, 3, 4, 5)  # N of each seeded constant-curvature family

HIERARCHY_HOPF_LEVELS = tuple(range(1, 11))
# (N, levels) of each seeded pair
HIERARCHY_PAIRS = ((3, 3), (2, 5)) + ((4, 2),) * 10 + ((3, 1),)

HOPF_AMPLITUDES = ("0.08", "0.09", "0.1", "0.11", "0.12")
PAIR_AMPLITUDES = ("0.04", "0.05", "0.06")

# (level, M) -> (dt, steps, how many of the seeded pairs run it).  dt keeps dt*max|V|*M/L at or below 0.3 over
# the seeded data (the CFL guard warns at 1); the Hopf runs end at t = 0.5,
# under a fifth of the breaking time.
SIM_PAIR_STEP = {
    (1, 256): ("0.001", 60, 5),
    (1, 512): ("0.0005", 60, 5),
    (2, 256): ("0.00015", 180, 3),
    (2, 512): ("0.000075", 180, 10),
    (3, 256): ("0.00002", 180, 2),
    (3, 512): ("0.00001", 180, 3),
}
SIM_HOPF_RUNS = 4  # Hopf initial amplitudes, each run at every (level, M)
SIM_HOPF_STEP = {(l, m): ("0.0025", 200) for l in (1, 2, 3) for m in (256, 512)}

BUILDERS = {"exact": exact, "simulate": simulate}


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    """The workload's jobs and problem files for this seed."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](random.Random(f"{name}/{seed}"), root, work)
