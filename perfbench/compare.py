#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

Usage:
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds one run per line, as `run.py --record FILE` appends them:
    {"workload": ..., "seed": ..., "trace": 0, "result": {...}}
For every workload and end-to-end metric of BENCHMARK.json, both sides'
sample count, median and quartiles are printed with a verdict:

  better      the change wins at least 9 in 10 of the runs paired by seed
              (ties count for neither) and the medians differ by more than
              the parent's own quartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  a side's quartile spread exceeds the bound, unless every run
              of the change reads better than every run of the parent;
  within      otherwise: no worse than the bound allows.

Runs that are not correct, or that failed operations, are reported and
left out. Exits 1 when any verdict is `worse`.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("trace", 0) != 0:
                continue
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """parent/change: lists of (seed, value)."""
    pv = [v for _, v in parent]
    cv = [v for _, v in change]
    p1, pm, p3 = quartiles(pv)
    c1, cm, c3 = quartiles(cv)
    sign = 1.0 if better == "higher" else -1.0

    def gain(a, b):  # > 0 when b is better than a
        return sign * (b - a)

    worse_share = gain(cm, pm) / abs(pm) if pm else 0.0
    p_spread = (p3 - p1) / abs(pm) if pm else 0.0
    c_spread = (c3 - c1) / abs(cm) if cm else 0.0
    all_better = min(gain(max(pv) if sign > 0 else min(pv), x)
                     for x in cv) > 0
    by_seed = dict(parent)
    pairs = [(by_seed[s], v) for s, v in change if s in by_seed]
    if len(pairs) < len(change):
        pairs = list(zip(pv, cv))
    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain(pm, cm) > (p3 - p1):
        return "better"
    if max(p_spread, c_spread) > bound and not all_better:
        return "unresolved"
    if worse_share > bound:
        return "worse"
    return "within"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parent = load_runs(sys.argv[1])
    change = load_runs(sys.argv[2])
    any_worse = False
    header = "%-18s %-18s %5s %28s %5s %28s  %s" % (
        "workload", "metric", "n", "parent q1/median/q3", "n",
        "change q1/median/q3", "verdict")
    print(header)
    for wl in [w["name"] for w in bench["workloads"]]:
        sides = []
        for runs, label in ((parent, "parent"), (change, "change")):
            good = [r for r in runs.get(wl, [])
                    if r["result"]["correct"] and r["result"]["failed"] == 0]
            bad = len(runs.get(wl, [])) - len(good)
            if bad:
                print("%s: %d %s run(s) incorrect or with failures, left out"
                      % (wl, bad, label))
            sides.append(good)
        if not sides[0] or not sides[1]:
            print("%-18s no runs on one side" % wl)
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            vals = []
            for side in sides:
                vals.append([(r["seed"], r["result"]["metrics"][name]["value"])
                             for r in side
                             if r["result"]["metrics"][name]["value"]
                             is not None])
            if not vals[0] or not vals[1]:
                print("%-18s %-18s absent on one side" % (wl, name))
                continue
            v = verdict(vals[0], vals[1], m["better"], m["bound"])
            any_worse |= v == "worse"
            pq = quartiles([x for _, x in vals[0]])
            cq = quartiles([x for _, x in vals[1]])
            print("%-18s %-18s %5d %28s %5d %28s  %s" % (
                wl, name, len(vals[0]), "%.4g/%.4g/%.4g" % pq,
                len(vals[1]), "%.4g/%.4g/%.4g" % cq, v))
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
