#!/usr/bin/env python3
"""Builds the CRES benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet_standard --seed 2019 --seconds 30 --trace 0

The binary is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`). Its last line of standard output is the result JSON; a
failed build, a failed output check or a timeout exits non-zero.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# A run measures for --seconds and then finishes its last round; anything
# far beyond that is a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 870


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion, killing it (and waiting) on timeout."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    args = sys.argv[1:]
    if not os.path.isdir(os.path.join(HERE, "..", "crates")):
        print("error: run from a checkout of the repository (its crates/ are missing)",
              file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    code = run(["cargo", "build", "--release", "--offline", "--quiet",
                "--manifest-path", MANIFEST],
               BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        print(f"error: build failed ({code})", file=sys.stderr)
        return code or 1
    binary = os.path.join(target, "release", "cres-perfbench")
    if "--spans-out" not in args:
        args = args + ["--spans-out", os.path.join(target, "spans.jsonl")]
    sys.stdout.flush()
    return run([binary] + args, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
