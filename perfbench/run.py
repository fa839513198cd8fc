#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: fleet_day, trace_replay_observed, faulted_parity_sweep.

The first call configures and builds perfbench/ (which compiles the
checkout's src/ tree) into .bench_build/ with CMake in Release mode; later
calls only rebuild what changed. Build output goes to stderr, so the last
line of stdout is always the benchmark's JSON result. The exit code is the
benchmark's: non-zero when the build fails, an argument is wrong or a
correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD, "perfbench")
WORKDIR = os.path.join(BUILD_ROOT, "work")
WORKLOADS = ("fleet_day", "trace_replay_observed", "faulted_parity_sweep")
# A run measures for --seconds and then checks its outputs; this bounds
# the whole benchmark process so a hang cannot outlive the run.
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                check=False)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--workdir", WORKDIR]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                                check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
