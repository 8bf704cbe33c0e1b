#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 hfadbench/run.py --workload naming --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds hfadbench/main.exe with dune,
with dune's shared cache off so that the build stays inside the checkout,
then runs it with the same arguments. The last line the benchmark prints
is the run's result as one JSON object. A run that cannot build or that
overruns its time limit exits non-zero without printing a result.
"""
import os
import subprocess
import sys

LIMIT_S = 170


def main():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        sys.exit("run.py: run from the root of the hfad repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./hfadbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    exe = os.path.join("_build", "default", "hfadbench", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark overran %d s" % LIMIT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
