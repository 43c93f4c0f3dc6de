#!/usr/bin/env python3
"""Build the DEUCE benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload replay-deuce --seed 1 \
        --seconds 10 --trace 0

The simulator library and the driver in perfbench/src are compiled
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build),
then the driver runs the workload. Build output goes to stderr; the
driver's report and its final JSON result line go to stdout. The exit
code is the driver's (nonzero if the build fails or an output check
fails).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay-deuce", "timed-mlc", "serve-ble")
DEFAULT_SEED = 20150314
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    jobs = str(max(1, (os.cpu_count() or 2) - 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "deuce_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print("perfbench: build step failed: %s" % err, file=sys.stderr)
            return False
        if proc.returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    out = build_dir()
    if not build(out):
        return 1

    exe = os.path.join(out, "deuce_perfbench")
    trace_out = os.path.join(out, "trace-%s.json" % args.workload)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_out]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
