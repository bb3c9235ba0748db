#!/usr/bin/env python3
"""Build repairctl and the perfbench harness from source, then run one
benchmark run.

    python3 perfbench/run.py --workload probe-hot --seed 1 --seconds 10 --trace 0

Run from the repository root. Everything the build and the run write stays
under .bench_build/ in the current directory (CARGO_TARGET_DIR, when set,
names that directory instead). The last line of standard output is the
JSON result.
"""
import argparse
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    root = os.getcwd()
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        # The go command keeps its telemetry counters under the user
        # config directory; this keeps them inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOFLAGS="-mod=mod -buildvcs=false",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    for d in ("gocache", "tmp", "bin"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    repairctl = os.path.join(out, "bin", "repairctl")
    harness = os.path.join(out, "bin", "perfbench")
    builds = [
        (["go", "build", "-o", repairctl, "./cmd/repairctl"], root),
        (["go", "build", "-o", harness, "."], os.path.join(root, "perfbench")),
    ]
    for cmd, cwd in builds:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    work = os.path.join(out, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [harness, "-repairctl", repairctl, "-work", work,
           "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", repr(args.seconds), "-trace", str(args.trace)]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
