#!/usr/bin/env python3
"""Interleaved A/B comparison of two checkouts on the benchmark.

Usage:

    python3 perfbench/ab.py --parent <checkout> --change <checkout>
        [--workloads a,b] [--pairs 10] [--seed-base 1000] [--trace 0]

Each checkout is a full source tree (e.g. `mkdir p && git archive <commit>
| tar -x -C p`); each builds its own tycos_bench on its first run. For every
workload the script runs --pairs parent/change pairs: pair i uses seed
seed-base + i on both sides, and the side that runs first alternates, so
drift in the machine's state hits both sides alike. Both checkouts must
hold the same BENCHMARK.json and perfbench/ files: a change that claims a
gain may not edit the benchmark.

For each (workload, end-to-end metric) it prints each side's median and
quartiles (statistics.quantiles, n=4), the fraction of pairs the change
won (ties count for neither side), and a verdict:

  gain          the change won >= 90% of pairs and the medians differ by
                more than the parent's spread (q3 - q1)
  regression    the change's median is worse than the parent's by more
                than the metric's bound
  unresolved    a side's spread ((q3 - q1) / median) exceeds the bound,
                and not every change run beats every parent run
  within bound  none of the above

A gain does not count when the change failed more operations than the
parent; the script says so. With --trace 1 it compares the per-layer
metrics instead, which have no bounds: medians and win fractions only.
"""

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"ab.py: no output from {checkout} ({workload}, seed {seed})")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.exit(f"ab.py: no result from {checkout} ({workload}, seed {seed})")


def same_benchmark(a, b):
    if not filecmp.cmp(os.path.join(a, "BENCHMARK.json"),
                       os.path.join(b, "BENCHMARK.json"), shallow=False):
        return False
    cmp = filecmp.dircmp(os.path.join(a, "perfbench"),
                         os.path.join(b, "perfbench"))
    stack = [cmp]
    while stack:
        d = stack.pop()
        _, mismatch, errors = filecmp.cmpfiles(d.left, d.right, d.common_files,
                                               shallow=False)
        if d.left_only or d.right_only or mismatch or errors:
            return False
        stack.extend(d.subdirs.values())
    return True


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"


def spread(q, median):
    return (q[2] - q[0]) / median if median else 0.0


def better(x, y, direction):
    """True when x is strictly better than y."""
    return x < y if direction == "lower" else x > y


def verdict(metric, parent, change, wins, failed_more):
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q_p = statistics.quantiles(parent, n=4)
    q_c = statistics.quantiles(change, n=4)
    direction, bound = metric["better"], metric.get("bound")
    worse_by = ((med_c - med_p) if direction == "lower"
                else (med_p - med_c)) / med_p if med_p else 0.0
    every_better = all(better(c, p, direction)
                       for c in change for p in parent)
    if (wins >= 0.9 and abs(med_c - med_p) > q_p[2] - q_p[0]
            and better(med_c, med_p, direction)):
        return "gain (void: more failures)" if failed_more else "gain"
    if bound is None:
        return "-"
    if worse_by > bound:
        return "regression"
    widest = max(spread(q_p, med_p), spread(q_c, med_c))
    if widest > bound and not every_better:
        return "unresolved"
    return "within bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if args.pairs < 10:
        sys.exit("ab.py: at least 10 pairs are needed for a verdict")
    if not same_benchmark(args.parent, args.change):
        sys.exit("ab.py: the checkouts differ in BENCHMARK.json or perfbench/")

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    for w in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = (["parent", "change"] if i % 2 == 0
                     else ["change", "parent"])
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side].append(run(checkout, w, seed, spec["run_seconds"],
                                      args.trace))
            print(f"{w}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
        failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
        wrong = {s: sum(not r["correct"] for r in runs[s]) for s in runs}
        print(f"\n== {w}: failed ops parent {failed['parent']} change "
              f"{failed['change']}; incorrect runs parent {wrong['parent']} "
              f"change {wrong['change']}")
        print(f"{'metric':34} {'parent q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'wins':>5}  verdict")
        for m in metrics:
            p = [r["metrics"][m["name"]]["value"] for r in runs["parent"]]
            c = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
            wins = sum(better(x, y, m["better"])
                       for x, y in zip(c, p)) / len(p)
            v = verdict(m, p, c, wins, failed["change"] > failed["parent"])
            print(f"{m['name']:34} {quartiles(p):>30} {quartiles(c):>30} "
                  f"{wins:5.2f}  {v}")


if __name__ == "__main__":
    main()
