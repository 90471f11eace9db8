#!/usr/bin/env python3
"""Build the daemon benchmark from source and run one workload.

Run from the repository root:

    python3 daemon_bench/run.py --workload read_long --seed 1 --seconds 9 --trace 0

The first call configures and builds into .bench_build/daemon_bench (the
library sources under src/ plus the program in daemon_bench/src); later
calls only rebuild what changed.  Build output goes to stderr, so the last
line on stdout is the program's JSON result.  Any build failure, such as a
checkout without src/, exits nonzero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "daemon_bench")
BINARY = os.path.join(BUILD, "daemon_bench")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("daemon_bench: no src/ next to daemon_bench/; nothing to build\n")
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.stderr.write("daemon_bench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    if not build():
        return 2
    sys.stdout.flush()
    # Replace this process, so the caller's exit code and stdout are the
    # benchmark's own and no child outlives the call.
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
