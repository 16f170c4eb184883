#!/usr/bin/env python3
"""A verdict per end-to-end metric for committed parent/change runs.

    python3 scripts/bench_compare.py BENCH_*.json

For each file written by bench_pair.py, prints one row per workload and
end-to-end metric of the repository's BENCHMARK.json: the parent and
change medians, the change as a fraction of the parent, the win fraction
(pairs where the change is strictly better; ties count for neither), and
a verdict:

  regressed     the change median is worse than the parent median by more
                than the metric's bound;
  gain          the change wins at least 9 of 10 pairs, and the medians
                differ by more than the parent's IQR in the better
                direction;
  unresolved    the parent's spread (IQR / median) exceeds the bound, and
                not every change run beats every parent run;
  within bound  otherwise.

Exits 1 if any row is regressed. Times nothing: the medians come from
bench_pair.py's summarize over the file's stored runs.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pair import summarize  # noqa: E402

GAIN_WIN_FRACTION = 0.9
BENCHMARK = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")


def end_to_end(benchmark_path):
    """[(name, better, bound)] in BENCHMARK.json's order."""
    with open(benchmark_path) as f:
        bench = json.load(f)
    return [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]


def run_values(doc, workload, seeds, metric):
    """Per side, the untraced run values at `seeds`."""
    out = {"parent": [], "change": []}
    for run in doc["runs"]:
        if (run["workload"] == workload and not run["trace"] and
                run["seed"] in seeds):
            m = run["result"]["metrics"].get(metric)
            if m is not None:
                out[run["side"]].append(m["value"])
    return out


def verdict(row, better, bound, values):
    p, c = row["parent"], row["change"]
    sign = -1.0 if better == "lower" else 1.0
    if p["median"] and sign * (p["median"] - c["median"]) / p["median"] > bound:
        return "regressed"
    if row["win_fraction"] >= GAIN_WIN_FRACTION and row["beats_parent_iqr"]:
        return "gain"
    if p["spread"] is not None and p["spread"] > bound:
        if better == "lower":
            separated = max(values["change"]) < min(values["parent"])
        else:
            separated = min(values["change"]) > max(values["parent"])
        if not separated:
            return "unresolved"
    return "within bound"


def compare(path, metrics):
    """Prints the file's rows; returns the number of regressed rows."""
    with open(path) as f:
        doc = json.load(f)
    summary = summarize(doc)
    print(path)
    print("  %-16s %-12s %12s %12s %9s %6s  %s" %
          ("workload", "metric", "parent", "change", "chg/par", "wins",
           "verdict"))
    regressed = 0
    for workload, entry in sorted(summary.items()):
        for name, better, bound in metrics:
            row = entry["metrics"].get(name)
            if row is None:
                continue
            p, c = row["parent"]["median"], row["change"]["median"]
            values = run_values(doc, workload, entry["seeds"], name)
            v = verdict(row, better, bound, values)
            regressed += v == "regressed"
            print("  %-16s %-12s %12.6g %12.6g %9s %6s  %s" %
                  (workload, name, p, c,
                   "%.3f" % (c / p) if p else "-",
                   "%d/%d" % (row["wins"], entry["pairs"]), v))
    return regressed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", metavar="BENCH_N.json")
    args = parser.parse_args()
    metrics = end_to_end(BENCHMARK)
    regressed = sum(compare(path, metrics) for path in args.files)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
