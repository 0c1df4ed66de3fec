#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed N]

Runs perfbench/run.py --trace 0 repeatedly on every workload of
BENCHMARK.json for its run_seconds, each run with another seed (N,
N+1, ...), and prints for every end-to-end metric of
BENCHMARK.json the median, the quartiles (statistics.quantiles, n=4),
the spread (q3 - q1) / median next to the metric's bound, and the
min-max range. A spread at or above a third of the bound is marked.
Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit("run failed: %s seed %d (exit %d)"
                         % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"] if len(lines) > 1 else {}
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit("verification failed: %s seed %d" % (workload, seed))
    return result["metrics"], report.get("flags", [])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 4:
        raise SystemExit("--runs must be at least 4 for quartiles")
    seconds = spec["run_seconds"]

    worst = 0.0
    for workload in [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        flagged = 0
        for k in range(args.runs):
            metrics, flags = run_once(workload, args.first_seed + k, seconds)
            flagged += 1 if flags else 0
            for name in values:
                values[name].append(metrics[name]["value"])
        print("%s: %d runs of %d s, %d flagged"
              % (workload, args.runs, seconds, flagged))
        print("  %-16s %12s %12s %12s %8s %6s  %s"
              % ("metric", "median", "q1", "q3", "spread", "bound", "min-max"))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = "" if spread < m["bound"] / 3 else "  <-- over bound/3"
            worst = max(worst, spread / m["bound"])
            print("  %-16s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%  %.6g-%.6g%s"
                  % (m["name"], med, q1, q3, 100 * spread, 100 * m["bound"],
                     min(v), max(v), mark))
        sys.stdout.flush()
    print("largest spread/bound: %.2f" % worst)


if __name__ == "__main__":
    main()
