#!/usr/bin/env python3
"""Compare two benchmark result sets (before/after).

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds run logs as written by sweep.py (<workload>-<seed>.log,
the JSON result on the last line). Per workload, a `runs` row counts the
runs that were not correct (correct false, or no result line): the verdict
is worse when the after side has more of them, or no correct run at all.
A workload the before side did not run is left out.
For every end-to-end metric the script prints each side's median and
quartiles over the correct runs (ok_share over all runs, a run without a
result counting as 0) and a verdict, as the choosing-metrics rules give it:

  improved    every after run beats every before run; or the after side
              wins at least 9 in 10 of the seed pairs and the medians
              differ in the better direction by more than the before
              side's quartile spread
  unresolved  otherwise, when either side's quartile spread (IQR / median)
              is wider than the metric's bound in BENCHMARK.json, so the
              sets cannot tell a change from noise
  worse       the after median is worse than the before median by more
              than the bound
  same        otherwise

The exit code is 1 when any row is worse.
"""
import glob
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def load_set(d):
    """Returns {workload: {seed: result or None}} for the run logs in d;
    None stands for a log without a result line."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(d, "*.log"))):
        m = re.match(r"(.+)-(\d+)\.log$", os.path.basename(path))
        if not m:
            continue
        lines = [l for l in open(path).read().splitlines() if l.strip()]
        res = None
        if lines:
            try:
                res = json.loads(lines[-1])
            except ValueError:
                pass
        if not isinstance(res, dict) or "metrics" not in res:
            res = None
        runs.setdefault(m.group(1), {})[int(m.group(2))] = res
    return runs


def ok(res):
    return res is not None and res.get("correct") is True


def values(runs, metric):
    """{seed: value} of metric over the correct runs; ok_share is taken
    over every run, a run without a result reading 0."""
    out = {}
    for seed, res in runs.items():
        if metric == "ok_share" and not ok(res):
            out[seed] = res["metrics"].get(metric, {}).get("value", 0.0) if res else 0.0
        elif ok(res) and metric in res["metrics"]:
            out[seed] = res["metrics"][metric]["value"]
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2 if q2 else 0.0


def workloads(bench, *sets):
    """BENCHMARK.json's workloads, then any other workload the sets ran."""
    names = [w["name"] for w in bench["workloads"]]
    return names + sorted(set().union(*sets) - set(names))


def spread_report(bench, runs):
    """Prints, per workload and end-to-end metric, the median and spread
    over the correct runs, marking spreads above a third of the bound."""
    print("%-12s %-24s %6s %14s %8s %6s" % ("workload", "metric", "runs", "median", "spread", "bound"))
    for w in workloads(bench, runs):
        side = runs.get(w, {})
        bad = sum(not ok(r) for r in side.values())
        if bad:
            print("%-12s %-24s %6d %14s" % (w, "NOT CORRECT", bad, ""))
        for m in bench["end_to_end"]:
            xs = list(values(side, m["name"]).values())
            if not xs:
                continue
            s = spread(xs)
            mark = "  > bound/3" if s > m["bound"] / 3 else ""
            print("%-12s %-24s %6d %14.6g %7.2f%% %5.0f%%%s" % (
                w, m["name"], len(xs), statistics.median(xs), 100 * s, 100 * m["bound"], mark))


def verdict(before, after, m):
    """before and after map seed -> value."""
    b, a = list(before.values()), list(after.values())
    lower = m["better"] == "lower"
    sign = 1 if lower else -1
    b_med, a_med = statistics.median(b), statistics.median(a)
    worse_by = sign * (a_med - b_med) / b_med if b_med else sign * (a_med - b_med)
    all_better = max(a) < min(b) if lower else min(a) > max(b)
    if all_better:
        return "improved"
    pairs = [s for s in before if s in after]
    wins = sum(sign * (after[s] - before[s]) < 0 for s in pairs)
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > spread(b):
        return "improved"
    if spread(b) > m["bound"] or spread(a) > m["bound"]:
        return "unresolved"
    if worse_by > m["bound"]:
        return "worse"
    return "same"


def table(bench, before_dir, after_dir):
    """Prints the before/after table; returns the number of worse rows."""
    before, after = load_set(before_dir), load_set(after_dir)
    fmt = lambda q: "%.4g/%.4g/%.4g" % q
    print("%-12s %-24s %32s %32s  %s" % ("workload", "metric", "before q1/median/q3", "after q1/median/q3", "verdict"))
    worse = 0
    for w in workloads(bench, before, after):
        rb, ra = before.get(w, {}), after.get(w, {})
        if not rb:
            continue
        bad_b = sum(not ok(r) for r in rb.values())
        bad_a = sum(not ok(r) for r in ra.values())
        good_a = len(ra) - bad_a
        v = "worse" if bad_a > bad_b or good_a == 0 else "same"
        worse += v == "worse"
        print("%-12s %-24s %32s %32s  %s" % (
            w, "runs (not correct/all)", "%d/%d" % (bad_b, len(rb)), "%d/%d" % (bad_a, len(ra)), v))
        for m in bench["end_to_end"]:
            xb, xa = values(rb, m["name"]), values(ra, m["name"])
            if not xb or not xa:
                continue
            v = verdict(xb, xa, m)
            worse += v == "worse"
            print("%-12s %-24s %32s %32s  %s" % (
                w, m["name"], fmt(quartiles(list(xb.values()))), fmt(quartiles(list(xa.values()))), v))
    return worse


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    return 1 if table(load_benchmark(), sys.argv[1], sys.argv[2]) else 0


if __name__ == "__main__":
    sys.exit(main())
