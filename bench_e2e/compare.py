#!/usr/bin/env python3
"""Compare two bench_e2e result files (written by --out).

    python3 bench_e2e/compare.py base.json change.json

For every workload present in both files and every metric BENCHMARK.json
declares, this prints the base and change values (the statistic bench_e2e
reports for the metric: a median, or for the timings a percentile), each
side's interquartile range (IQR), the metric's bound and a verdict:

  better      the change wins at least 9 of every 10 paired runs and the
              values differ by more than the base's own IQR. Run i of one
              file is paired with run i of the other, which simulated the
              same input when both used the same --seed. Ties count for
              neither side. At least ten pairs are needed.
  worse       end-to-end metrics: the change's value is worse than the
              base's by more than the bound (a share of the base value).
              Per-layer metrics, which have no bound: the change loses 9 of
              10 pairs and the values differ by more than the base's IQR.
  unresolved  the base's IQR is wider than the bound, so a regression
              inside the bound could not be seen, and not every change run
              beats every base run; or the win rule holds on fewer than
              ten pairs.
  unchanged   none of the above.

The exit status is 1 when any end-to-end metric is worse, else 0.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10


def iqr(samples):
    if len(samples) < 2:
        return 0.0
    q = statistics.quantiles(samples, n=4)
    return q[2] - q[0]


def verdict(base, change, base_value, change_value, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (change_value - base_value)
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    spread = iqr(base)
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return "better" if len(pairs) >= MIN_PAIRS else "unresolved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > spread:
            return "worse"
        return "unchanged"
    if -gain > bound * abs(base_value):
        return "worse"
    every_better = (min(change) > max(base)) if sign > 0 else (max(change) < min(base))
    if spread > bound * abs(base_value) and not every_better:
        return "unresolved"
    return "unchanged"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        declared = json.load(f)
    base, change = [json.load(open(path)) for path in argv]
    if base.get("seed") != change.get("seed"):
        print("note: the files used different seeds (%s, %s), so run i of one did not "
              "simulate the same input as run i of the other"
              % (base.get("seed"), change.get("seed")))

    metrics = [(m, "end_to_end") for m in declared["end_to_end"]] + \
              [(m, "per_layer") for m in declared["per_layer"]]
    worse_e2e = 0
    header = "%-34s %14s %10s %14s %10s %6s  %s" % (
        "metric", "base value", "base IQR", "change value", "chg IQR", "bound", "verdict")
    for workload in sorted(set(base["workloads"]) & set(change["workloads"])):
        b_metrics = base["workloads"][workload]["metrics"]
        c_metrics = change["workloads"][workload]["metrics"]
        print("\n%s\n%s" % (workload, header))
        for m, kind in metrics:
            name = m["name"]
            if name not in b_metrics or name not in c_metrics:
                continue
            b, c = b_metrics[name]["samples"], c_metrics[name]["samples"]
            if not b or not c:
                continue
            b_value, c_value = b_metrics[name]["value"], c_metrics[name]["value"]
            bound = m.get("bound")
            v = verdict(b, c, b_value, c_value, m["better"], bound)
            if kind == "end_to_end" and v == "worse":
                worse_e2e += 1
            print("%-34s %14.6g %10.4g %14.6g %10.4g %6s  %s" % (
                name, b_value, iqr(b), c_value, iqr(c),
                "-" if bound is None else "%g" % bound, v))
    return 1 if worse_e2e else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
