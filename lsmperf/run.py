#!/usr/bin/env python3
"""Build and run lsmperf, lsmlab's benchmark.

Usage, from the repository root:

    python3 lsmperf/run.py --workload point_read_large --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (lsmperf/go.mod) that imports
the repository's packages through a replace directive. Everything the
build and the runs write stays under .bench_build/ at the repository
root: the Go build cache, the binary, the stores, the results and the
trace files. All arguments are passed to the binary unchanged.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    # Keep the toolchain's caches and temporary files inside the build
    # directory, and never fetch a toolchain or module.
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache"), ("TMPDIR", "tmp")):
        env[var] = os.path.join(BUILD, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOFLAGS="", GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off", CGO_ENABLED="0")
    binary = os.path.join(BUILD, "bin", "lsmperf")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("lsmperf: build failed", file=sys.stderr)
        return 1
    args = [binary, "-work", os.path.join(BUILD, "lsmperf"), "-root", ROOT] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
