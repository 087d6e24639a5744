#!/usr/bin/env python3
"""Build and run the WALI benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload apps|syscall|coldstart \\
        --seed N --seconds S --trace 0|1

Builds perfbench/wbench.exe from source with dune (release profile, build
directory .bench_build/, no shared build cache, so nothing is written
outside the checkout) and runs it with the same arguments. The last
line of standard output is the benchmark's JSON result; on any build or
run failure the script prints no result and exits non-zero.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/wbench.exe"


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "perfbench", "dune")):
        print("run.py: run from the root of the repository", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache", "disabled", "-j", "2", TARGET],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(root, BUILD_DIR, "default", "perfbench", "wbench.exe")
    run = subprocess.run([exe] + sys.argv[1:], check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
