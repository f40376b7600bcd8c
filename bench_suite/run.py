#!/usr/bin/env python3
"""Builds bench_suite from this checkout's sources and runs workloads.

Run from the root of the repository:

    python3 bench_suite/run.py --workload suite --seed 1 --seconds 20 --trace 0

Each run first configures and builds a Release binary under .bench_build/
(a no-op once built; build output goes to stderr). Every workload runs in a
child process of its own; `--workload all` runs the four in turn. Other
flags are passed to the binary unchanged (see bench_suite.cpp). The exit
status is the first nonzero status of a build step or a child, else 0.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_suite")
WORKLOADS = ["suite", "verify", "verify_w4", "small"]


def build():
    """Configures and builds the binary. Returns a process status."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "bench_suite", "-j", jobs]]
    for step in steps:
        status = subprocess.run(step, stdout=sys.stderr,
                                stderr=sys.stderr).returncode
        if status != 0:
            print(f"run.py: {' '.join(step)} failed with status {status}",
                  file=sys.stderr)
            return status
    return 0


def main(argv):
    args = list(argv)
    workloads = None
    if "--workload" in args:
        i = args.index("--workload")
        if i + 1 < len(args) and args[i + 1] == "all":
            workloads = WORKLOADS
            del args[i:i + 2]
    status = build()
    if status != 0:
        return status
    sys.stdout.flush()
    if workloads is None:
        return subprocess.run([BINARY] + args).returncode
    first_failure = 0
    for name in workloads:
        status = subprocess.run([BINARY, "--workload", name] + args).returncode
        sys.stdout.flush()
        first_failure = first_failure or status
    return first_failure


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
