#!/usr/bin/env python3
"""Build and run the FLeet serving benchmark.

Usage, from the repository root:

    python3 fleetbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the fleet library and the benchmark
from source into .bench_build/fleetbench (later runs only re-check it),
runs the benchmark's self-test, then runs the workload. Workload shapes
live in fleetbench/workloads.json. The last line of standard output is the
benchmark's JSON result; the exit code is non-zero when the build, the
self-test or the correctness gate fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"fleetbench: {message}", file=sys.stderr)
    return 2


def build(build_dir):
    """Configure (once) and build; tool output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                   stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "fleet")):
        return fail(f"no fleet sources under {ROOT}/src/fleet")
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        return fail(f"unknown workload {args.workload!r}; "
                    f"known: {', '.join(sorted(workloads))}")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "fleetbench")
    try:
        build(build_dir)
        subprocess.run([os.path.join(build_dir, "fleetbench_selftest")],
                       check=True, stdout=sys.stderr, timeout=60)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        return fail(f"build or self-test failed: {error}")

    command = [os.path.join(build_dir, "fleetbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out_dir", build_dir]
    for key, value in workloads[args.workload]["flags"].items():
        command += [f"--{key}", str(value)]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
