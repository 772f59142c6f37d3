#!/usr/bin/env python3
"""Builds the sorel service benchmark and runs it.

Run from the root of a checkout:

    python3 svcbench/run.py --workload orders_churn --seed 1 --seconds 8 --trace 0

The svcbench binary (svcbench/src) is configured and built with CMake into
the directory named by $CARGO_TARGET_DIR (default .bench_build); build
output goes to stderr, so the last line of stdout is the binary's JSON
result. Every argument is passed to the binary; see svcbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "svcbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return None
    return os.path.join(build_dir, "svcbench")


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    if binary is None:
        print("svcbench: build failed", file=sys.stderr)
        return 1
    return subprocess.call([binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
