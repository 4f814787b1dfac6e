#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds
perfbench/ (the ECSSD library from src/ plus the benchmark program) in
the directory named by CARGO_TARGET_DIR, or .bench_build when unset;
later runs only rebuild what changed.  Build output goes to standard
error, so the last line of standard output is the JSON result.

A traced run (--trace 1) also writes its spans as Chrome trace-event
JSON to <build dir>/traces/<workload>-seed<N>.json, which Perfetto and
chrome://tracing open.

Extra option, for the self-test only: --scale tiny shrinks every
workload so it runs in seconds.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("trace-10m", "serve-steady", "deploy-2m", "serve-burst")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    """Configure once, then build; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build directory.
    scratch = os.path.join(out_dir, "tmp")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "ecssd_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"perfbench: build step failed: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(out_dir, "ecssd_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
