#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload paper|scale|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The script builds perfbench/main.exe
(or selftest.exe) with dune and runs it with the remaining arguments.
The benchmark's standard output, which ends in one JSON line, passes
through unchanged; dune's output goes to standard error.  Without a
buildable checkout the script exits non-zero and prints no result.
"""

import os
import subprocess
import sys


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no dune-project and lib/ here; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    target = "selftest" if argv == ["--selftest"] else "main"
    args = [] if target == "selftest" else argv
    # Keep every build product inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", f"./perfbench/{target}.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", f"{target}.exe")
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
