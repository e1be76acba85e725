#!/usr/bin/env python3
"""Builds the end-to-end tuning-run benchmark from source and runs it.

    python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2e_bench/run.py --test     # build and run the benchmark's own tests

Run from the repository root. The build goes to .bench_build/e2e_bench
(CMake, RelWithDebInfo, the repository's own compile flags); build output
goes to stderr so the last line of stdout is the benchmark's JSON result.
A traced run (--trace 1) also writes its spans, one JSON object per line, to
.bench_build/spans-<workload>-<seed>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "e2e_bench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(target):
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure,
                ["cmake", "--build", BUILD, "--target", target, "-j", jobs]):
        try:
            result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"run.py: {' '.join(cmd)}: {error}", file=sys.stderr)
            return False
        if result.returncode != 0:
            print(f"run.py: {' '.join(cmd)} failed", file=sys.stderr)
            return False
    return True


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"run.py: {cmd[0]}: {error}", file=sys.stderr)
        return 2


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    if args.test:
        if not build("e2e_bench_test"):
            return 2
        return run([os.path.join(BUILD, "e2e_bench_test")])

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build("e2e_bench"):
        return 2
    cmd = [os.path.join(BUILD, "e2e_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans-out", os.path.join(
            BUILD_ROOT, f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
