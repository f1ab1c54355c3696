#!/usr/bin/env python3
"""Builds and runs the Table-1 use-case benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload acquire|register|music|ringtone \
        --seed N --seconds S --trace 0|1

Configures perfbench/CMakeLists.txt (which builds the library and
ri_server through the repository's own CMakeLists.txt) into .bench_build,
builds the benchmark binary usecase_bench, and runs it. Build output goes
to stderr; the binary's stdout is passed through, so its last line is the
result object. Exits nonzero without a result when the build fails (for
instance outside a full source tree) or the binary rejects its arguments.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("acquire", "register", "music", "ringtone")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "usecase_bench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3

    state_dir = os.path.join(BUILD, "state")
    os.makedirs(state_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "usecase_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: usecase_bench timed out", file=sys.stderr)
        return 4
    lines = proc.stdout.strip().splitlines()
    if lines[:-1]:
        print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        print("perfbench: usecase_bench printed no result", file=sys.stderr)
        return proc.returncode or 5
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
