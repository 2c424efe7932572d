"""Compare sets of benchmark runs, e.g. a parent commit against a change.

Collect runs (the same benchmark code runs against every checkout, so both
sides are measured identically; the order alternates from seed to seed):

    python3 perfbench/compare.py collect --side parent=../parent --side change=. \\
        --seeds 1-10 --out runs.jsonl [--workload simulate ...]

Report every (metric, workload) pair in its own row:

    python3 perfbench/compare.py report runs.jsonl [--claim wall_s@exact]

The base is the side named first to ``collect``.  Each row gives the median
and quartiles of both sides and the change in the median as a share of the
base median, signed so that positive is worse.  A
row is ``within`` when that change is no worse than the metric's bound in
BENCHMARK.json, ``REGRESSED`` when it is worse, and ``unresolved`` when
either side's quartile spread is wider than the bound (unless every run of
the change beats every run of the base).  With a single side, the report
gives each row's spread against its bound.  A claim is met when the change
wins at least nine tenths of the seed pairs (ties count for neither) and the
medians differ by more than the base's own quartile spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_one(checkout, workload, seed):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def collect(args):
    sides = [s.split("=", 1) for s in args.side]
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    with open(args.out, "a") as out:
        for k, seed in enumerate(seeds(args.seeds)):
            for workload in workloads:
                order = sides if k % 2 == 0 else sides[::-1]
                for position, (label, checkout) in enumerate(order):
                    result = run_one(checkout, workload, seed)
                    rec = {"side": label, "workload": workload, "seed": seed, "position": position, "result": result}
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                    value = {m: v["value"] for m, v in result["metrics"].items()}
                    print(f"{label:>8} {workload:<18} seed {seed:<4} correct={result['correct']} {value}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_share(base, change, better):
    """Relative change of the median, positive when the change is worse."""
    delta = (change - base) / base
    return delta if better == "lower" else -delta


def report(args):
    recs = [json.loads(line) for line in Path(args.runs).read_text().splitlines() if line.strip()]
    for r in recs:
        if not r["result"]["correct"]:
            print(f"INCORRECT run: {r['side']} {r['workload']} seed {r['seed']} ({r['result']['failed']} failed)")
    values = defaultdict(list)  # (side, workload, metric) -> [(seed, value)]
    sides = []
    for r in recs:
        if r["side"] not in sides:
            sides.append(r["side"])
        for name, m in r["result"]["metrics"].items():
            values[r["side"], r["workload"], name].append((r["seed"], m["value"]))
    base = sides[0]  # the first --side of the collection
    change = sides[1] if len(sides) > 1 else None
    workloads = sorted({r["workload"] for r in recs})
    for name, spec in BOUNDS.items():
        for workload in workloads:
            b = [v for _, v in values.get((base, workload, name), [])]
            if not b:
                continue
            bq = quartiles(b)
            b_spread = (bq[2] - bq[0]) / bq[1]
            row = f"{name:<14}{workload:<18}{base}: {bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}] n={len(b)} spread {b_spread:.3f}"
            if change is None:
                verdict = "ok" if b_spread <= spec["bound"] / 3 else ("wide" if b_spread <= spec["bound"] else "TOO WIDE")
                print(f"{row}  bound {spec['bound']}  {verdict}")
                continue
            c = [v for _, v in values.get((change, workload, name), [])]
            if not c:
                continue
            cq = quartiles(c)
            c_spread = (cq[2] - cq[0]) / cq[1]
            worse = worse_share(bq[1], cq[1], spec["better"])
            all_better = (max(c) < min(b)) if spec["better"] == "lower" else (min(c) > max(b))
            if max(b_spread, c_spread) > spec["bound"] and not all_better:
                status = "unresolved"
            else:
                status = "within" if worse <= spec["bound"] else "REGRESSED"
            print(f"{row} | {change}: {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] n={len(c)} "
                  f"spread {c_spread:.3f} | worse by {worse:+.3f} (bound {spec['bound']}) {status}")
    for claim in args.claim or []:
        name, _, workload = claim.partition("@")
        better = BOUNDS[name]["better"] if name in BOUNDS else "lower"
        b = dict(values[base, workload, name])
        c = dict(values[change, workload, name])
        pairs = [(b[s], c[s]) for s in b if s in c]
        wins = sum((cv < bv) if better == "lower" else (cv > bv) for bv, cv in pairs)
        bq = quartiles(list(b.values()))
        gap = abs(statistics.median(c.values()) - bq[1])
        met = pairs and wins >= 0.9 * len(pairs) and gap > bq[2] - bq[0]
        print(f"claim {claim}: change wins {wins} of {len(pairs)} pairs; median gap {gap:.4g} "
              f"vs base quartile spread {bq[2] - bq[0]:.4g} -> {'met' if met else 'NOT met'}")


def main(argv=None):
    ap = argparse.ArgumentParser(description="collect and compare benchmark runs")
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--side", action="append", required=True, help="label=checkout directory")
    c.add_argument("--workload", action="append")
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    c.add_argument("--out", required=True, help="JSON lines file, appended to")
    r = sub.add_parser("report")
    r.add_argument("runs")
    r.add_argument("--claim", action="append", help="metric@workload")
    args = ap.parse_args(argv)
    collect(args) if args.cmd == "collect" else report(args)


if __name__ == "__main__":
    main()
