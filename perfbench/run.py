#!/usr/bin/env python3
"""Build and run the CBNet benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exec-pfabric --seed 1 --seconds 10 --trace 0

The benchmark program (perfbench/main.ml) is built with dune from the
checkout's sources, then run with the given arguments; its last line of
standard output is the JSON result.  Build output goes to standard
error.  The exit code is the program's, or 2 when the checkout or the
build is unusable.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 175


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a CBNet checkout "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
