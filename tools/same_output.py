"""Check that two checkouts give byte-identical output on a workload.

    python3 tools/same_output.py --base ../parent --workload exact --seed 1
    python3 tools/same_output.py --base ../parent --workload files

The checkout that holds this script is compared with ``--base``.  A
benchmark workload's job list comes from ``perfbench/workloads.py`` of this
checkout, built once per side in its own work directory.  The ``files``
workload (``--seed`` is ignored) runs every command of ``file_commands``, in
text and ``--json``, on this checkout's ``problems/*.json`` and golden
fixtures, copied into each side's work directory so that both sides read the
same files.  Each job runs as
``python -m hydrobrackets ...`` in a fresh process against each checkout's
``src/``.  The exit code, stdout, stderr and every file in the job's output
directory are compared after the work-directory and checkout paths are
replaced by placeholders.  The first differing job is printed with the first
differing lines, and the exit status is 1 on any difference, 0 otherwise.
The exit status is 1 too when a head job run with ``--json`` prints stdout
that is not strict JSON (RFC 8259, which has no NaN or Infinity); the job and
the offending token are printed.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py, read only)

JOB_TIMEOUT_S = 300

SYMBOLIC = [
    "check-poisson", "check-compat", "check-pencil", "check-canonical", "build-canonical", "liouville",
]

Job = namedtuple("Job", "label argv out")


def input_files(root: Path) -> list:
    """The committed problems, then the golden fixtures, of a checkout."""
    golden = root / "tests" / "golden"
    return sorted((root / "problems").glob("*.json")) + sorted(
        p for p in golden.glob("*.json") if p.name != "exit_codes.json"
    )


def file_commands(path: Path, out: Path) -> list:
    """argv lists of every command on one problem file, in text and
    ``--json``: the symbolic commands, ``hierarchy`` with the automatic and
    the zero gauge, ``commute``, and ``simulate`` plain and dealiased into
    ``out``."""
    argvs = []
    for fmt in ([], ["--json"]):
        argvs += [[cmd, str(path), *fmt] for cmd in SYMBOLIC]
        argvs += [
            ["hierarchy", str(path), "--levels", "3", *fmt],
            ["hierarchy", str(path), "--levels", "3", "--gauge", "zero", *fmt],
            ["commute", str(path), "--levels", "3", *fmt],
            ["simulate", str(path), "--out", str(out), *fmt],
            ["simulate", str(path), "--out", str(out), "--dealias", *fmt],
        ]
    return argvs


def file_jobs(work: Path) -> list:
    """The ``files`` workload: ``file_commands`` on a copy, under ``work``,
    of each of this checkout's ``input_files``."""
    jobs = []
    for k, source in enumerate(input_files(HERE)):
        path = work / "files" / source.relative_to(HERE)
        path.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source, path)
        out = work / "out" / str(k)
        for argv in file_commands(path, out):
            label = " ".join(argv).replace(str(work), "<work>")
            jobs.append(Job(label, argv, out if argv[0] == "simulate" else None))
    return jobs


def run_side(root: Path, work: Path, job) -> dict:
    """One job in a fresh process: {aspect: normalised bytes}."""
    if job.out is not None:
        shutil.rmtree(job.out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "hydrobrackets", *job.argv],
        cwd=root, env=env, capture_output=True, timeout=JOB_TIMEOUT_S,
    )

    def norm(data: bytes) -> bytes:
        return data.replace(str(work).encode(), b"<work>").replace(str(root).encode(), b"<checkout>")

    out = {"exit code": str(proc.returncode).encode(), "stdout": norm(proc.stdout), "stderr": norm(proc.stderr)}
    if job.out is not None and job.out.is_dir():
        for path in sorted(p for p in job.out.rglob("*") if p.is_file()):
            out[f"file {path.relative_to(job.out)}"] = norm(path.read_bytes())
    return out


def not_json(stdout: bytes):
    """Why ``stdout`` is not strict JSON (a NaN, Infinity or -Infinity
    token, or a parse error), or None when it is JSON or empty."""

    def refuse(token):
        raise ValueError(f"token {token}")

    if not stdout.strip():
        return None
    try:
        json.loads(stdout, parse_constant=refuse)
    except ValueError as exc:
        return str(exc)
    return None


def first_difference(a: dict, b: dict):
    for aspect in sorted(set(a) | set(b)):
        if aspect not in a or aspect not in b:
            return aspect, f"present only in {'base' if aspect in a else 'head'}"
        if a[aspect] != b[aspect]:
            lines = difflib.unified_diff(
                a[aspect].decode(errors="replace").splitlines(),
                b[aspect].decode(errors="replace").splitlines(),
                "base", "head", n=1, lineterm="",
            )
            return aspect, "\n".join(list(lines)[:20])
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, type=Path, help="checkout to compare this one against")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS) + ["files"])
    ap.add_argument("--seed", type=int, help="the benchmark workload's seed (ignored for files)")
    args = ap.parse_args(argv)
    if args.workload != "files" and args.seed is None:
        ap.error(f"--seed is required for the {args.workload} workload")
    sides = {"base": args.base.resolve(), "head": HERE}
    for name, root in sides.items():
        if not (root / "src" / "hydrobrackets" / "cli.py").is_file():
            print(f"same_output: no src/hydrobrackets under {root} ({name})", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="same_output-") as tmp:
        works = {name: Path(tmp) / name for name in sides}
        if args.workload == "files":
            jobs = {name: file_jobs(works[name]) for name in sides}
        else:
            jobs = {
                name: workloads.build(args.workload, args.seed, root, works[name]).jobs
                for name, root in sides.items()
            }
        total = len(jobs["base"])
        for k in range(total):
            base_job, head_job = jobs["base"][k], jobs["head"][k]
            results = {
                name: run_side(sides[name], works[name], job)
                for name, job in (("base", base_job), ("head", head_job))
            }
            bad = not_json(results["head"]["stdout"]) if "--json" in head_job.argv else None
            if bad is not None:
                print(f"NOT JSON job {k + 1}/{total} {head_job.label}: {bad}")
                return 1
            diff = first_difference(results["base"], results["head"])
            if diff is not None:
                aspect, detail = diff
                print(f"DIFFERENT job {k + 1}/{total} {base_job.label}: {aspect}")
                print(detail)
                return 1
    seed = "" if args.workload == "files" else f" seed={args.seed}"
    print(f"same_output: workload={args.workload}{seed}: {total} jobs identical "
          "(exit code, stdout, stderr, output files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
