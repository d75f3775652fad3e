#!/usr/bin/env python3
"""Build and run the hcs end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload wide_hier --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is built from source into .bench_build/perfbench (CMake,
Release), then run; its last line of standard output is one JSON object
with the run's metrics. Build output goes to standard error. Exits non-zero
without a result when the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build(target):
    source = os.path.dirname(os.path.abspath(__file__))
    os.makedirs(BUILD_ROOT, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main(argv):
    target = "perfbench_selftest" if argv == ["--selftest"] else "perfbench"
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, target)
    args = [] if target == "perfbench_selftest" else argv
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
