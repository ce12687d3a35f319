#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload kap-fence --seed 1 --seconds 25 --trace 0

The arguments go unchanged to perfbench/main.exe, whose last line of
standard output is the JSON result. Build output goes to standard
error; a failed build exits non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def run(argv, timeout, **kw):
    """Run argv in its own process group; on timeout kill the whole
    group (main.exe's repetition processes included) and reap it."""
    proc = subprocess.Popen(argv, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: %s timed out" % argv[0], file=sys.stderr)
        return 1


def main():
    # The shared dune cache lives outside the checkout: build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    built = run(["dune", "build", "--root", ".", "./perfbench/main.exe"], 850,
                stdout=sys.stderr, env=env)
    if built != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run([EXE] + sys.argv[1:], 175)


if __name__ == "__main__":
    sys.exit(main())
