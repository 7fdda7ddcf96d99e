#!/usr/bin/env python3
"""One command for the casched benchmark.

    python3 perfbench/run.py --workload deep|shallow --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark (CMake, Release) from the
checkout's sources into $CARGO_TARGET_DIR, or .bench_build when unset, then
runs it. The last line of standard output is the result JSON; build output
goes to standard error. The exit code is the benchmark's: non-zero when an
output check failed or the sources are missing. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
    ):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            return False
    return True


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no src/ next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "perfbench")
    try:
        proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
