#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload build-er --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py compare OLD.out NEW.out

Every argument passes through to the Go program (see main.go). The build
cache, the binary and the run's scratch files all live under .bench_build/ in
the current directory, so the benchmark writes nothing outside the checkout.
The build needs the repository's own sources (perfbench/go.mod replaces the
lowmemroute module with ../); without them it fails and this script exits 2
without printing a result.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850


def main() -> int:
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    binary = os.path.join(out, "perfbench", "perfbench")
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
    )
    for d in ("gocache", "gopath", "tmp", "config", "perfbench"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    try:
        build = subprocess.run(
            [go, "build", "-o", binary, "."],
            cwd=src, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)
    return 2  # not reached


if __name__ == "__main__":
    sys.exit(main())
