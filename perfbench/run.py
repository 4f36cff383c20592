#!/usr/bin/env python3
"""Entry point of the Nepal wire benchmark.

Builds perfbench/wirebench.exe from source with dune (inside this
checkout, dune cache off) and runs one workload:

    python3 perfbench/run.py --workload virt_interactive --seed 1 \
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero when the build
fails, when any answer is wrong, or when the run cannot complete.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/wirebench.exe"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "--display", "quiet", TARGET],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(build.returncode or 1)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "wirebench.exe")
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(exe, [exe, "run"] + sys.argv[1:])


if __name__ == "__main__":
    main()
