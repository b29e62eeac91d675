#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload screen --seed 7 --seconds 30 --trace 0

Run from the repository root. Builds the rigor library (src/) and the
benchmark driver in Release mode under .bench_build/ (incrementally:
only the first run in a checkout compiles), then runs the driver and
prints its result as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Build output and progress go to stderr. Exits non-zero without a
result line when the build or the run fails, or when the library
sources are missing.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(REPO_ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build():
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: src/CMakeLists.txt not found; run from a "
                 "checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench_driver"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    scratch = os.path.join(REPO_ROOT, ".bench_build", "run")
    done = subprocess.run(
        [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--scratch-dir", scratch],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.exit("perfbench: driver exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: driver printed no result line")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
