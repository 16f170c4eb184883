#!/usr/bin/env python3
"""Paired parent/change runs of the repo benchmark, and their check.

Measure (run from anywhere; both checkouts hold the whole repository):

    python3 scripts/bench_pair.py --parent P --parent-label SHA \\
        --change C --out BENCH_<N>.json \\
        --pairs batch_search_ie=1-10,7919 --pairs batch_ground_lp=1-5 \\
        --pairs serve_rc_wire=1-5 --traced-seed 1

runs `python3 perfbench/run.py` in checkout P and checkout C, one
untraced run per side for every (workload, seed) pair. The side that runs
first alternates from pair to pair. --traced-seed adds one traced run per
side per workload. SHA, the parent's commit id, is stored as the file's
`parent`. The two checkout paths must have equal length, so that
path strings cannot move memory layout between the sides. Every result
line is stored, and the file is rewritten after each run; --resume keeps
the runs of an existing --out file and measures only what is missing.

Check (times nothing; CI runs it over every committed BENCH_*.json):

    python3 scripts/bench_pair.py --check BENCH_*.json

validates each file's schema (its `parent` must be a commit id of 7-40
hex digits) and recomputes its summary from its stored
runs: per workload and metric, each side's median, quartiles and spread
(IQR / median), the median paired delta (change - parent) and its ratio
to the parent's median, the win fraction (pairs where the change is
strictly better; ties count for neither), and whether the medians differ
by more than the parent's IQR.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

SCHEMA = "tuffy-bench-pair/1"
SIDES = ("parent", "change")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_KEYS = ("workload", "seed", "trace", "side", "first", "result")
# The parent is named by its commit id, so a file says what it compared.
COMMIT_ID = re.compile(r"[0-9a-fA-F]{7,40}")


def metric_directions(benchmark_path):
    """Maps every metric BENCHMARK.json names to "lower" or "higher"."""
    with open(benchmark_path) as f:
        bench = json.load(f)
    return {m["name"]: m["better"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def quartiles(values):
    """(q1, median, q3), inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def side_stats(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def summarize(doc):
    """Recomputes the summary from doc["runs"] and doc["better"]."""
    better = doc["better"]
    pairs = {}   # workload -> seed -> side -> metrics (untraced)
    traced = {}  # workload -> side -> metrics
    for run in doc["runs"]:
        metrics = {k: v["value"] for k, v in run["result"]["metrics"].items()}
        if run["trace"]:
            traced.setdefault(run["workload"], {})[run["side"]] = metrics
        else:
            pairs.setdefault(run["workload"], {}).setdefault(
                run["seed"], {})[run["side"]] = metrics
    summary = {}
    for workload, by_seed in sorted(pairs.items()):
        complete = [s for s in sorted(by_seed) if set(by_seed[s]) == set(SIDES)]
        names = sorted(set.intersection(
            *[set(by_seed[s][side]) for s in complete for side in SIDES])
            if complete else [])
        rows = {}
        for name in names:
            p = [by_seed[s]["parent"][name] for s in complete]
            c = [by_seed[s]["change"][name] for s in complete]
            deltas = [ci - pi for pi, ci in zip(p, c)]
            sign = -1.0 if better.get(name) == "lower" else 1.0
            wins = sum(1 for d in deltas if sign * d > 0)
            ps, cs = side_stats(p), side_stats(c)
            delta = statistics.median(deltas)
            rows[name] = {
                "better": better.get(name),
                "parent": ps,
                "change": cs,
                "paired_delta": delta,
                "paired_delta_frac": delta / ps["median"] if ps["median"]
                else None,
                "wins": wins,
                "win_fraction": wins / len(deltas),
                "beats_parent_iqr": sign * (cs["median"] - ps["median"]) >
                (ps["q3"] - ps["q1"]),
            }
        summary[workload] = {"pairs": len(complete), "seeds": complete,
                             "metrics": rows}
    for workload, sides in sorted(traced.items()):
        if set(sides) != set(SIDES):
            continue
        rows = {name: {"parent": sides["parent"][name],
                       "change": sides["change"][name]}
                for name in sorted(set(sides["parent"]) & set(sides["change"]))}
        summary.setdefault(workload, {"pairs": 0, "seeds": [], "metrics": {}})
        summary[workload]["traced"] = rows
    return summary


def close(a, b):
    """Equal JSON values, floats to 1e-9 relative."""
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    return a == b


def check(path):
    """Returns a list of problems with the file at `path`."""
    problems = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return ["cannot read: %s" % e]
    missing = [k for k in ("schema", "command", "seconds", "parent", "change",
                           "host", "better", "runs", "summary") if k not in doc]
    if missing:
        return ["missing keys %s" % missing]
    if doc["schema"] != SCHEMA:
        problems.append("schema is %r, not %r" % (doc["schema"], SCHEMA))
    if not (isinstance(doc["parent"], str) and
            COMMIT_ID.fullmatch(doc["parent"])):
        problems.append("parent is %r, not a commit id (7-40 hex digits)" %
                        (doc["parent"],))
    for name, way in doc["better"].items():
        if way not in ("lower", "higher"):
            problems.append("metric %s: better is %r" % (name, way))
    seen = set()
    for i, run in enumerate(doc["runs"]):
        where = "run %d" % i
        missing = [k for k in RUN_KEYS if k not in run]
        if missing:
            problems.append("%s: missing %s" % (where, missing))
            continue
        ident = (run["workload"], run["seed"], run["trace"], run["side"])
        if ident in seen:
            problems.append("%s: duplicate %s" % (where, ident))
        seen.add(ident)
        if run["side"] not in SIDES or run["first"] not in SIDES:
            problems.append("%s: bad side or first" % where)
        result = run["result"]
        if not isinstance(result, dict) or set(result) != RESULT_KEYS:
            problems.append("%s: result line keys are not %s" %
                            (where, sorted(RESULT_KEYS)))
            continue
        for name, m in result["metrics"].items():
            if not isinstance(m, dict) or "value" not in m or "unit" not in m:
                problems.append("%s: metric %s lacks value/unit" %
                                (where, name))
    for ident in seen:
        other = "change" if ident[3] == "parent" else "parent"
        if (ident[0], ident[1], ident[2], other) not in seen:
            problems.append("unpaired run %s" % (ident,))
    if problems:
        return problems
    recomputed = summarize(doc)
    if not close(recomputed, doc["summary"]):
        problems.append("stored summary differs from the one recomputed "
                        "from the runs")
    return problems


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run in `checkout`; returns its parsed result line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("perfbench failed in %s: %s seed %d trace %d" %
                           (checkout, workload, seed, trace))
    return json.loads(lines[-1])


def save(doc, path):
    doc["summary"] = summarize(doc)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def measure(args):
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    if len(checkouts["parent"]) != len(checkouts["change"]):
        sys.exit("bench_pair: checkout paths differ in length")
    doc = None
    if args.resume and os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    if doc is None:
        doc = {
            "schema": SCHEMA,
            "command": "python3 perfbench/run.py",
            "seconds": args.seconds,
            "parent": args.parent_label,
            "change": args.change_label,
            "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                     "system": platform.system()},
            "better": metric_directions(
                os.path.join(checkouts["change"], "BENCHMARK.json")),
            "runs": [],
        }
    done = {(r["workload"], r["seed"], r["trace"], r["side"])
            for r in doc["runs"]}
    plan = []
    for spec in args.pairs:
        workload, seeds = spec.split("=")
        plan.extend((workload, seed, 0) for seed in parse_seeds(seeds))
    if args.traced_seed is not None:
        for workload in dict.fromkeys(w for w, _, _ in plan):
            plan.append((workload, args.traced_seed, 1))
    for index, (workload, seed, trace) in enumerate(plan):
        first = SIDES[index % 2]
        order = (first, SIDES[1 - index % 2])
        for side in order:
            if (workload, seed, trace, side) in done:
                continue
            result = run_once(checkouts[side], workload, seed, args.seconds,
                              trace)
            doc["runs"].append({"workload": workload, "seed": seed,
                                "trace": trace, "side": side, "first": first,
                                "result": result})
            save(doc, args.out)
            print("%s seed %d trace %d %s: %s" %
                  (workload, seed, trace, side,
                   {k: v["value"] for k, v in result["metrics"].items()
                    if k in ("op_p50_ms", "map_cost")}), file=sys.stderr)
    save(doc, args.out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", nargs="+", metavar="FILE")
    parser.add_argument("--parent", help="parent checkout")
    parser.add_argument("--change", help="change checkout")
    parser.add_argument("--parent-label",
                        help="the parent's commit id (7-40 hex digits)")
    parser.add_argument("--change-label", default="change",
                        help="what the change is, e.g. a short description")
    parser.add_argument("--out", help="BENCH_<N>.json to write")
    parser.add_argument("--pairs", action="append", default=[],
                        metavar="WORKLOAD=SEEDS",
                        help="seeds as a list of N and A-B ranges")
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--resume", action="store_true")
    args = parser.parse_args()
    if args.check:
        failed = False
        for path in args.check:
            problems = check(path)
            for p in problems:
                print("%s: %s" % (path, p), file=sys.stderr)
            failed = failed or bool(problems)
            if not problems:
                print("%s: OK" % path)
        return 1 if failed else 0
    if not (args.parent and args.parent_label and args.change and args.out
            and args.pairs):
        parser.error("measuring needs --parent, --parent-label, --change, "
                     "--out and --pairs")
    if not COMMIT_ID.fullmatch(args.parent_label):
        parser.error("--parent-label must be the parent's commit id")
    measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
