#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

    python3 bench/e2e/compare.py PARENT CHANGE
    python3 bench/e2e/compare.py --bundle OUT NAME=DIR [NAME=DIR ...]

A result set is a directory of run records (run.py --json-out), one record
file, or one set of a bundle written by --bundle, named FILE#NAME. For every
(workload, end-to-end metric) the table gives each side's median and
quartiles over its runs, the share of seed-paired runs the change wins, and
a verdict under the bounds in BENCHMARK.json:

  improved    the change wins at least 9 in 10 pairs and the medians differ
              by more than the parent's own quartile spread
  regressed   the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's quartile spread is wider than the bound and not
              every change run beats every parent run
  unchanged   otherwise

A change that fails more operations than the parent improves nothing.
Per-layer metrics from traced runs are listed with medians only: they have
no bound. Exits 1 when any verdict is "regressed". Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

MANIFEST = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "BENCHMARK.json")


def load_set(spec):
    path, _, name = spec.partition("#")
    if os.path.isdir(path):
        return [json.load(open(f)) for f in sorted(glob.glob(os.path.join(path, "*.json")))]
    doc = json.load(open(path))
    if name:
        return doc["sets"][name]
    return doc if isinstance(doc, list) else [doc]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def by_workload(records, traced):
    out = {}
    for record in records:
        if record["traced"] == traced:
            out.setdefault(record["workload"], []).append(record)
    for runs in out.values():
        runs.sort(key=lambda r: r["seed"])
    return out


def verdict(parent, change, better, bound, failures_worse):
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    sign = 1 if better == "lower" else -1
    worse = sign * (c_med - p_med) / p_med
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_share = wins / len(pairs) if pairs else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    beyond_spread = abs(c_med - p_med) > p_q3 - p_q1
    if not failures_worse and win_share >= 0.9 and worse < 0 and beyond_spread:
        result = "improved"
    elif worse > bound:
        result = "regressed"
    elif (p_q3 - p_q1) / p_med > bound and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return result, win_share


def fmt(value):
    return f"{value:.4g}"


def describe(values):
    q1, q3 = quartiles(values)
    return f"{fmt(statistics.median(values))} [{fmt(q1)} {fmt(q3)}] ({len(values)})"


def compare(parent_records, change_records):
    manifest = json.load(open(MANIFEST))
    parent, change = by_workload(parent_records, False), by_workload(change_records, False)
    regressed = False
    print(f"{'workload':<10} {'metric':<12} {'unit':<4} {'parent median [q1 q3] (n)':<34} "
          f"{'change median [q1 q3] (n)':<34} {'delta':>8} {'wins':>5}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            result, win_share = verdict(p_vals, c_vals, metric["better"], metric["bound"],
                                        c_failed > p_failed)
            regressed |= result == "regressed"
            delta = statistics.median(c_vals) / statistics.median(p_vals) - 1
            print(f"{workload:<10} {name:<12} {metric['unit']:<4} {describe(p_vals):<34} "
                  f"{describe(c_vals):<34} {delta:>+8.2%} {win_share:>5.0%}  {result} "
                  f"(bound {metric['bound']:.0%})")
        print(f"{workload:<10} failed operations: parent {p_failed} of "
              f"{sum(r['attempted'] for r in p_runs)}, change {c_failed} of "
              f"{sum(r['attempted'] for r in c_runs)}")

    parent_t, change_t = by_workload(parent_records, True), by_workload(change_records, True)
    for workload in sorted(set(parent_t) & set(change_t)):
        print(f"\n{workload}: per-layer medians over traced runs (no bound)")
        for metric in manifest["per_layer"]:
            name = metric["name"]
            p = statistics.median(r["metrics"][name]["value"] for r in parent_t[workload])
            c = statistics.median(r["metrics"][name]["value"] for r in change_t[workload])
            delta = f"{c / p - 1:+.2%}" if p else "-"
            print(f"  {name:<26} {metric['unit']:<9} {fmt(p):>12} {fmt(c):>12} {delta:>9}")
    return 1 if regressed else 0


def bundle(out, named_dirs):
    sets = {}
    for item in named_dirs:
        name, _, path = item.partition("=")
        sets[name] = load_set(path)
    with open(out, "w") as f:
        json.dump({"sets": sets}, f, indent=1)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", help="PARENT CHANGE, or NAME=DIR with --bundle")
    parser.add_argument("--bundle", metavar="OUT", help="write the named sets to one file")
    args = parser.parse_args()
    if args.bundle:
        bundle(args.bundle, args.sets)
        return 0
    if len(args.sets) != 2:
        parser.error("expected PARENT and CHANGE")
    return compare(load_set(args.sets[0]), load_set(args.sets[1]))


if __name__ == "__main__":
    sys.exit(main())
