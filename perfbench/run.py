#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kv-read-zipf --seed 1 --seconds 20 --trace 0

The arguments go unchanged to the OCaml benchmark (perfbench/main.ml),
which prints its result as the last line of stdout.  Build output goes
to stderr.  Exits non-zero, printing no result, when the build fails
(for instance in a directory without the repository's sources).
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: neither dune nor opam is on PATH")


def main():
    if not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the root of a checkout of the repository")
    build = subprocess.run(
        # No shared build cache: the build reads and writes only the
        # checkout's _build.
        dune_command() + ["build", "--root", ".", "--cache=disabled",
                          "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
