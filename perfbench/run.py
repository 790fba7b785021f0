#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload composite --seed 1 --seconds 10 --trace 0

The Go program in this directory is built into .bench_build/ at the
repository root, with the Go build cache, temporary files and the
benchmark's farms kept there too, and then run with the given arguments
from the repository root. The program's exit code is returned; a failed
build exits with code 2 and prints no result.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build(env):
    binary = os.path.join(BUILD, "bin", "perfbench")
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    # Concurrent runs in one checkout share the binary: build under a lock.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if proc.returncode != 0:
        return None
    return binary


def main():
    os.makedirs(BUILD, exist_ok=True)
    env = go_env()
    binary = build(env)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
