#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (shared build cache off, so that
nothing is written outside the checkout), then runs it with the same
arguments and exits with its code.  The last line of standard output is
the result as one JSON object; see perfbench/README.md.
"""

import glob
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 175


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix and os.access(os.path.join(prefix, "bin", "dune"), os.X_OK):
        return os.path.join(prefix, "bin", "dune")
    switches = sorted(glob.glob(os.path.expanduser(os.path.join("~", ".opam", "*", "bin", "dune"))))
    return switches[0] if switches else None


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail(2, "no dune-project next to perfbench/: run from a checkout of the repository")
    dune = find_dune()
    if dune is None:
        fail(2, "dune not found on PATH or in an opam switch")
    env = dict(os.environ, DUNE_CACHE="disabled")
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(3, "build failed")
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, "run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
