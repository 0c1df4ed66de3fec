#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/compose_bench.cpp).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is built with CMake into
.bench_build/perfbench (an out-of-tree build of perfbench/CMakeLists.txt,
which takes the library headers from src/). The last line of standard
output is the result object; the line before it is the run's report
(provenance, latency sample counts, flags). A traced run also writes its
spans to .bench_build/perfbench/traces/. The exit code is non-zero when
the build fails, an argument is bad, or a verification fails.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "compose_bench")
# The workloads compose_bench implements.
WORKLOADS = ("hot-counter", "read-mostly-kv")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "combining.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", "2"],
    ]
    if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    # The compiler's temporary files stay in the build directory too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
