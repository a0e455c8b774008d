#!/usr/bin/env python3
"""The repository benchmark: one command, nine end-to-end metrics per
workload, and a separate traced run for the per-layer metrics.

    python3 perfbench/run.py --workload suite_matrix|serve_mixed
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. It builds the GDP libraries and the
benchmark binary from source into .bench_build/perfbench (Release), runs
one workload, and passes the binary's output through: a human-readable
table, then as the last line one JSON object with the keys correct,
attempted, failed and metrics. A traced run (--trace 1) also writes its
spans to .bench_build/perfbench/spans/. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DEFAULT_SEED = 1  # Also kDefaultSeed in src/Bench.h.


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets=("perfbench",)):
    """Configures (once) and builds the binary; build output goes to stderr
    so the binary's JSON stays the last line of stdout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the GDP sources (src/) are missing from " + ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD_DIR


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["suite_matrix", "serve_mixed"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in [1, 3600]")

    binary = os.path.join(build(), "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    # A run measures for --seconds after a set-up of a few seconds; one
    # that takes twice as long (plus slack) is hung.
    timeout = 2 * args.seconds + 50
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % timeout)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
