#!/usr/bin/env python3
"""Build the repo from source and run one benchmark workload.

    python3 perfbench/run.py --workload serve|contend|ladder|certify \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to _build/ inside the
checkout with dune's shared cache disabled, so nothing is read from or
written to outside it. The benchmark's last line of standard output is
its JSON result; the exit code is non-zero if the build fails or any
output fails its check.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

TARGETS = ["perfbench/main.exe", "bin/bloom_serve.exe"]


def main():
    root = os.getcwd()
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(root, ".perfbench", "cache")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS,
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join("_build", "default", "perfbench", "main.exe")]
    cmd += sys.argv[1:]
    cmd += ["--serve-exe", os.path.join("_build", "default", "bin",
                                        "bloom_serve.exe")]
    # Its own session, so a timeout also stops the daemon it spawned.
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
