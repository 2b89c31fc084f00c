#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 caqrbench/run.py --workload reuse_wide|paper_mix|shots|serve_mix \
        --seed N --seconds S --trace 0|1

The first run configures and builds `caqr_bench` (the library sources
under src/ plus this directory) into .bench_build/; later runs rebuild
only what changed. Build output goes to stderr, so the benchmark's own
output is all that reaches stdout; its last line is the JSON result.
Exits nonzero, without a result, when the sources or the build are
missing or broken.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def run_build_step(argv):
    return subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "service.h")):
        print("caqrbench: no library sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    # At most four compile jobs: the build shares memory with other work.
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_build_step(["cmake", "-S", HERE, "-B", BUILD,
                               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return 2
    if not run_build_step(["cmake", "--build", BUILD, "-j", jobs, "--target", "caqr_bench"]):
        return 2
    argv = [os.path.join(BUILD, "caqr_bench"), *sys.argv[1:], "--root", ROOT,
            "--out-dir", os.path.join(BUILD, "out"), "--git-sha", git_sha()]
    return subprocess.run(argv).returncode


if __name__ == "__main__":
    sys.exit(main())
