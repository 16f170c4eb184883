#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds perfbench/ (which
compiles the engine from ../src) into .bench_build/perfbench, generates
the workload's MLN and evidence text from the seed in one process,
measures in a second process that only reads that text, and prints the
measuring process's JSON result as the last line of stdout. Build and
progress output goes to stderr. Scratch files live under .bench_work/
and are removed before exit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("batch_ground_lp", "batch_search_ie", "serve_rc_wire")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# Seconds allowed per step after the build.
GEN_TIMEOUT = 60
RUN_TIMEOUT = 150


def build():
    """Configures (once) and builds the perfbench binary; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "exec", "tuffy_engine.h")):
        print("perfbench: engine sources (src/) not found", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def run_step(args, timeout, capture):
    """Runs the binary; returns (returncode, stdout text)."""
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE if capture else sys.stderr,
                              stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: step timed out: " + " ".join(args), file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout or ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    work = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", work]
        code, _ = run_step(["gen"] + common, GEN_TIMEOUT, capture=False)
        if code != 0:
            print("perfbench: input generation failed", file=sys.stderr)
            return 1
        code, out = run_step(["run"] + common +
                             ["--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             RUN_TIMEOUT, capture=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        print("perfbench: measurement failed", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
