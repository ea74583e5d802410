#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe (and the
oosdb CLI, which serve-durable calls to certify its recorded history)
with dune, then runs the workload in one child process and passes its
output through; the last line of standard output is the result object.
Exits non-zero, without a result, when the build or the run fails.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        sys.stderr.write("perfbench: run from the root of a checkout (no dune-project here)\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/bench.exe", "./bin/oosdb.exe"],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    # its own process group, so that a run stopped at the limit takes
    # the server it may have forked down with it
    run = subprocess.Popen([exe] + sys.argv[1:], stdout=subprocess.PIPE,
                           start_new_session=True)
    try:
        out, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.buffer.write(out)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
