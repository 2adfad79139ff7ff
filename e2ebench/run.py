#!/usr/bin/env python3
"""Run one benchmark workload of the simulator.

    python3 e2ebench/run.py --workload ppf|baselines|multicore \
        --seed N --seconds S --trace 0|1 [--scale X] [--threads T]

Run from the root of a source checkout.  The first run builds the
harness (e2ebench/CMakeLists.txt, which builds the simulator library with
the repository's own build file) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set; later runs only re-check the build.
Build output goes to stderr.  The harness's stdout is passed through
unchanged: human-readable lines, then one JSON object as the last line.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run must end within this many seconds, build check included.
HARNESS_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    """Configure (once) and build the harness; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("e2ebench: no simulator sources next to e2ebench/ "
                 "(CMakeLists.txt and src/ are missing)")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "epfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2ebench: build failed: " + " ".join(cmd))
    return os.path.join(out, "epfbench")


def main():
    binary = build()
    try:
        proc = subprocess.run([binary] + sys.argv[1:],
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("e2ebench: harness exceeded %d s" % HARNESS_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
