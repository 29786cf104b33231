#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

From the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark binary is built with dune inside the checkout (the shared
dune cache is switched off, so the build writes nothing outside it) and
then replaces this process.  Its standard output ends with the one-line
JSON result; build messages go to standard error.  A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
