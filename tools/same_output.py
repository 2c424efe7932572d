"""Check that two checkouts give byte-identical output on a benchmark workload.

    python3 tools/same_output.py --base ../parent --workload exact --seed 1

The checkout that holds this script is compared with ``--base``.  The job
list comes from ``perfbench/workloads.py`` of this checkout, built once per
side in its own work directory.  Each job runs as
``python -m hydrobrackets ...`` in a fresh process against each checkout's
``src/``.  The exit code, stdout, stderr and every file in the job's output
directory are compared after the work-directory and checkout paths are
replaced by placeholders.  The first differing job is printed with the first
differing lines, and the exit status is 1 on any difference, 0 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py, read only)

JOB_TIMEOUT_S = 300


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
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    sides = {"base": args.base.resolve(), "head": HERE}
    for name, root in sides.items():
        if not (root / "src" / "hydrobrackets" / "cli.py").is_file():
            print(f"same_output: no src/hydrobrackets under {root} ({name})", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="same_output-") as tmp:
        works = {name: Path(tmp) / name for name in sides}
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
            diff = first_difference(results["base"], results["head"])
            if diff is not None:
                aspect, detail = diff
                print(f"DIFFERENT job {k + 1}/{total} {base_job.label}: {aspect}")
                print(detail)
                return 1
    print(f"same_output: workload={args.workload} seed={args.seed}: {total} jobs identical "
          "(exit code, stdout, stderr, output files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
