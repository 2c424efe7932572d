"""hydrobrackets benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
A run makes one pass over the workload's job list, which is sized to take
about ``--seconds`` (BENCHMARK.json's run_seconds); the option is accepted
for the benchmark's interface and does not change the jobs.
``--trace 0`` runs every job as ``python -m hydrobrackets ...`` in a fresh
process, one at a time (a closed loop with one client), and reports the
end-to-end metrics.  ``--trace 1`` runs the same jobs in this process through
``hydrobrackets.cli.main``, each job once untraced and once traced, and
reports the per-layer metrics.  Every job's exit code and output are checked
against a known answer; the last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import workloads

JOB_TIMEOUT_S = 60.0
SETUP_REPEATS = 7  # cold starts per run; setup_s is their median

# a cold start: what every CLI call pays before the command itself runs
SETUP_CODE = (
    "import sys\n"
    "import hydrobrackets.cli as cli\n"
    "for path in sys.argv[1:]:\n"
    "    cli.load_problem(path)\n"
    "print(cli.__file__)\n"
)
IMPORT_CODE = "import hydrobrackets.cli as cli\nprint(cli.__file__)\n"


class Env:
    """Where the program lives and how its processes are started."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.src = root / "src"
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.expected_cli = (self.src / "hydrobrackets" / "cli.py").resolve()

    def spawn(self, argv, stdout_path):
        """Run one process to completion; returns (exit code, seconds).

        A timer kills the process after JOB_TIMEOUT_S so a run always ends.
        The wait blocks rather than polls, as ``subprocess.run(timeout=...)``
        does, which would round every latency up to its 50 ms poll step."""
        with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, cwd=self.root, env=self.env)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                rc = proc.wait()
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            return rc, time.perf_counter() - t0

    def cold_starts(self, code, files, repeats):
        """Cold-start times of ``code``; checks the imported path."""
        out = self.work / "coldstart.txt"
        times = []
        for k in range(repeats + 1):  # the first one writes the bytecode cache
            rc, elapsed = self.spawn(["-c", code, *map(str, files)], out)
            imported = Path(out.read_text().strip()).resolve() if rc == 0 else None
            if imported != self.expected_cli:
                raise RuntimeError(f"cold start imported {imported}, expected {self.expected_cli}")
            if k:
                times.append(elapsed)
        return times


def tail(latencies):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def provenance(env: Env) -> dict:
    lines = sum(len(p.read_text().splitlines()) for p in sorted(env.src.rglob("*.py")))
    return {
        "program": str(env.expected_cli.parent),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "src_lines": lines,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# untraced run: one process per job
# ---------------------------------------------------------------------------


def run_untraced(env: Env, wl):
    setup = env.cold_starts(SETUP_CODE, wl.files, SETUP_REPEATS)
    latencies, failures = [], []
    sim_units, sim_time = 0, 0.0
    stdout_path = env.work / "stdout.txt"
    for job in wl.jobs:
        if job.out is not None:
            shutil.rmtree(job.out, ignore_errors=True)
        rc, elapsed = env.spawn(["-m", "hydrobrackets", *job.argv], stdout_path)
        latencies.append(elapsed)
        if job.units:
            sim_units += job.units
            sim_time += elapsed
        reason = check(job, rc, stdout_path.read_text())  # a timed-out job exits -9
        if reason:
            err = Path(str(stdout_path) + ".err").read_text().strip().splitlines()
            failures.append(f"{job.label}: {reason}" + (f" [{err[-1]}]" if err else ""))
    # the cold starts import less than any job, so the peak is a job's
    peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    tail_value, tail_pct, n = tail(latencies)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(sum(latencies), "s"),
        "job_p50_s": metric(statistics.median(latencies), "s"),
        "job_tail_s": metric(tail_value, "s"),
        "peak_rss_mb": metric(peak_rss, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} cold starts",
        "wall_s": f"sum of {n} job latencies",
        "job_p50_s": f"median of {n} jobs",
        "job_tail_s": f"p{tail_pct:.1f} of {n} jobs, {min(10, n - 1)} slower",
        "peak_rss_mb": f"largest of {n} job processes",
    }
    lines = [f"{name:<28}{m['value']:>14.4f} {m['unit']:<4} ({notes[name]})" for name, m in metrics.items()]
    lines.append(f"{'failed_ratio':<28}{len(failures) / n:>14.4f} 1    ({len(failures)} of {n} jobs)")
    if sim_units:
        lines.append(
            f"{'sim_gridpoint_steps_per_s':<28}{sim_units / sim_time:>14.1f} 1/s  "
            f"(sum M*steps / sum simulate job time, {n} jobs)"
        )
    return metrics, lines, n, failures


def check(job, rc, stdout):
    try:
        return job.check(rc, stdout)
    except Exception as exc:  # malformed output is a failed job, not a crash
        return f"output check raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# traced run: in-process, through cli.main
# ---------------------------------------------------------------------------


def run_inprocess(cli, job, tracer=None):
    """One job through cli.main in this process; returns (seconds, failure)."""
    if job.out is not None:
        shutil.rmtree(job.out, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    rc = cli.main(job.argv)
                else:
                    rc = tracer.span(f"job:{job.label}", cli.main, job.argv)
            except Exception:
                traceback.print_exc()
                rc = 1
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    reason = check(job, rc, out.getvalue())
    return elapsed, (f"{job.label}: {reason}" if reason else None)


def run_traced(env: Env, wl, spans_path):
    """Each job runs twice, untraced and traced, in alternating order so that
    host drift and warm-up fall on both sides of the overhead alike."""
    import tracer as tracing

    startup = env.cold_starts(IMPORT_CODE, [], SETUP_REPEATS)
    sys.path.insert(0, str(env.src))
    import hydrobrackets.cli as cli

    if Path(cli.__file__).resolve() != env.expected_cli:
        raise RuntimeError(f"imported {cli.__file__}, expected {env.expected_cli}")
    tr = tracing.Tracer()
    walls, failures = {None: 0.0, tr: 0.0}, []
    for k, job in enumerate(wl.jobs):
        for t in (None, tr) if k % 2 == 0 else (tr, None):
            elapsed, failure = run_inprocess(cli, job, t)
            walls[t] += elapsed
            failures += [failure] if failure else []
    tr.write_spans(spans_path)
    values = tr.metrics()
    values["cli.startup_s"] = statistics.median(startup)
    values["trace.untraced_wall_s"] = walls[None]
    values["trace.wall_s"] = walls[tr]
    values["trace.overhead_s"] = walls[tr] - walls[None]
    metrics = {k: metric(v, unit_of(k)) for k, v in sorted(values.items())}
    lines = [f"{k:<36}{m['value']:>16.6g} {m['unit']}" for k, m in metrics.items()]
    loaded = [layer for layer in tracing.LAYERS if values.get(f"{layer}.self_s", 1.0) > 0]
    lines.append(f"layers that did work: {', '.join(loaded)}")
    lines.append(
        f"tracing overhead: {values['trace.overhead_s']:.3f} s on {values['trace.untraced_wall_s']:.3f} s "
        f"untraced in-process wall (every job run both ways); spans in {spans_path}"
    )
    return metrics, lines, 2 * len(wl.jobs), failures


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    return "count"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="nominal; one pass is sized to it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still removes its work directory and its running job
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd().resolve()
    if not (root / "src" / "hydrobrackets" / "cli.py").is_file():
        print(f"perfbench: no src/hydrobrackets under {root}; run from a checkout root", file=sys.stderr)
        return 2
    work_root = root / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = Env(root, work)
        wl = workloads.build(args.workload, args.seed, root, work)
        info = provenance(env)
        print(
            f"perfbench: workload={wl.name} seed={args.seed} trace={args.trace} "
            f"jobs={len(wl.jobs)}"
        )
        print("context: " + ", ".join(f"{k}={v}" for k, v in info.items()))
        if args.trace:
            spans = work_root / f"spans-{wl.name}-{args.seed}.csv"
            metrics, lines, attempted, failures = run_traced(env, wl, spans)
        else:
            metrics, lines, attempted, failures = run_untraced(env, wl)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    for f in failures:
        print(f"FAILED {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
