#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

Usage: python3 perfbench/run.py --workload temporal|spatial|serve \
           --seed N --seconds S --trace 0|1

The Go program is built from source into the build directory
($CARGO_TARGET_DIR, default .bench_build), with the Go build cache, module
cache and tool configuration kept inside it, so the run reads and writes
only inside the checkout. The program's standard output is passed through;
its last line is the JSON verdict. A failed build exits non-zero without
printing a result.
"""

import argparse
import os
import subprocess
import sys


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0")
    a = p.parse_args()

    root = os.getcwd()
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOENV="off",
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=os.path.join(root, "perfbench"), env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    args = ["-workload", a.workload, "-seed", a.seed, "-seconds", a.seconds, "-trace", a.trace]
    if a.trace == "1":
        args += ["-spans", os.path.join(build, "spans-%s-%s.json" % (a.workload, a.seed))]
    return subprocess.run([exe] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
