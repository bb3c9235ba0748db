#!/usr/bin/env python3
"""Run the benchmark over several seeds and save one or two result sets.

    python3 perfbench/sweep.py [--seeds 1-10] [--workloads probe-hot,probe-cold]
                               OUTDIR[=TREE] [OUTDIR[=TREE]]

Run from the repository root. --workloads defaults to BENCHMARK.json's
workloads; update-mix, which runs but is not in BENCHMARK.json, can be
named too. Each side's runs are made in TREE (a checkout holding
BENCHMARK.json; the current directory by default) at BENCHMARK.json's
run_seconds with --trace 0, and saved as OUTDIR/<workload>-<seed>.log;
the last line of each is the JSON result.
With two sides the runs alternate seed by seed, and the side that goes
first alternates too, so a host whose speed drifts during the sweep moves
both sides alike.

Afterwards, per side, workload and end-to-end metric, the script prints
the median over the seeds and the spread (distance between the first and
third quartile, statistics.quantiles(values, n=4), as a share of the
median) next to the metric's bound from BENCHMARK.json, marking spreads
above a third of the bound; with two sides it then prints compare.py's
before/after table. Traced runs (--trace 1) are left to run.py.
"""
import argparse
import os
import subprocess
import sys

import compare


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("sides", nargs="+", metavar="OUTDIR[=TREE]")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    if len(args.sides) > 2:
        ap.error("at most two sides")

    bench = compare.load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    sides = []
    for spec in args.sides:
        out, _, tree = spec.partition("=")
        os.makedirs(out, exist_ok=True)
        sides.append((out, os.path.abspath(tree or ".")))
    failures = 0
    for w in workloads:
        for k, s in enumerate(seeds(args.seeds)):
            order = sides if k % 2 == 0 else sides[::-1]
            for out, tree in order:
                cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                          "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                r = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
                with open(os.path.join(out, "%s-%d.log" % (w, s)), "w") as f:
                    f.write(r.stdout)
                status = "ok" if r.returncode == 0 else "exit %d" % r.returncode
                failures += r.returncode != 0
                print("%s: %s seed %d: %s" % (out, w, s, status), file=sys.stderr)
    for out, _ in sides:
        print("# %s" % out)
        compare.spread_report(bench, compare.load_set(out))
    if len(sides) == 2:
        failures += compare.table(bench, sides[0][0], sides[1][0])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
