#!/usr/bin/env python3
"""Builds optimus_ledger from source, then runs it with the given arguments.

    python3 bench/ledger/run.py                       # one pass, all workloads
    python3 bench/ledger/run.py --workload serve --seed 7 --seconds 10 --trace 0

The build (CMake, Release) goes to .bench_build/ledger under the repository
root and is reused by later calls. Build output goes to stderr, so the last
line of stdout is the ledger's own. A failed build exits nonzero without a
result. See ledger.cc for the ledger's flags and README.md for the metrics.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
BINARY = os.path.join(BUILD, "optimus_ledger")


def build():
    os.makedirs(BUILD, exist_ok=True)
    # Serialize concurrent first runs on one build directory.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]]
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                sys.exit("run.py: build failed: " + " ".join(step))


def main():
    build()
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    main()
