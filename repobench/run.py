#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 repobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark and the library sources under src/ into .bench_build/repobench
(Release); later runs only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. A traced
run (--trace 1) writes its spans to .bench_out/<workload>.spans.csv.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "repobench")
BUILD = os.path.join(ROOT, ".bench_build", "repobench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("chain4", "nat_churn", "chain_swap", "scaleout_skew")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_step(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"repobench: {' '.join(cmd)}: {err}", file=sys.stderr)
        return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("repobench: library sources not found under src/",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_step(["cmake", "-S", SOURCE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    return run_step(["cmake", "--build", BUILD, "--target", "repobench",
                     "-j", jobs], BUILD_TIMEOUT_S)


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
        return 2
    cmd = [os.path.join(BUILD, "repobench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT, f"{args.workload}.spans.csv")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"repobench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
