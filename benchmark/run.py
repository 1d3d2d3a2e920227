#!/usr/bin/env python3
"""Build and run the solarsched benchmark from a checkout of this repository.

    python3 benchmark/run.py --workload offline_cold --seed 1 --seconds 45 --trace 0

Builds the benchmark program (this directory, a Go module of its own) and
solarschedd from the checkout's sources into .bench_build/, then replaces
itself with the benchmark program, which prints one JSON result line.
The Go build cache, module cache and temporary files stay under
.bench_build/; stores and span files go to .bench_out/. Without the
repository's sources next to this directory the build fails and the
script exits 2 without printing a result.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")


def go_env():
    env = dict(os.environ)
    for name in ("cache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(BUILD, name), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "cache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="-buildvcs=false",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def build(env):
    """Builds both binaries; returns their paths, or None on failure."""
    bench = os.path.join(BUILD, "bin", "benchmark")
    daemon = os.path.join(BUILD, "bin", "solarschedd")
    for out, pkg in ((bench, "."), (daemon, "solarsched/cmd/solarschedd")):
        proc = subprocess.run(
            ["go", "build", "-o", out, pkg],
            cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
        )
        if proc.returncode != 0:
            print("run.py: building %s failed" % pkg, file=sys.stderr)
            return None
    return bench, daemon


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    try:
        built = build(env)
    except OSError as err:
        print("run.py: %s" % err, file=sys.stderr)
        return 2
    if built is None:
        return 2
    bench, daemon = built
    os.makedirs(OUT, exist_ok=True)
    os.chdir(ROOT)
    argv = [
        bench,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", repr(args.seconds),
        "-trace", str(args.trace),
        "-daemon", daemon,
        "-out", OUT,
        "-exec-ns", str(time.time_ns()),
    ]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(bench, argv, env)


if __name__ == "__main__":
    sys.exit(main())
