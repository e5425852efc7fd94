#!/usr/bin/env python3
"""Compare bench_e2e runs of a parent commit and a change.

    python3 bench/e2e/compare.py P1.json C1.json P2.json C2.json ...

Arguments alternate parent and change run records, in the order the runs
were made (alternate which side runs first between pairs).  A record is
the JSON run.py keeps under .bench_build/e2e-results/ (bench_e2e --out):
one workload's run, or a list of them.  The k-th parent and k-th change
run of a workload form a pair.

For every end-to-end metric in BENCHMARK.json and every workload, prints
each side's median and quartiles, the change's win fraction over the
pairs (ties count for neither), and a verdict:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's own quartile spread;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  neither, but the parent's spread is wider than the bound and
              not every change run beats every parent run;
  unchanged   otherwise.

Exits 1 when any pairing regressed.  Standard library only.
"""
import argparse
import json
import pathlib
import statistics
import sys

DEFAULT_BENCH = pathlib.Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_runs(path):
    with open(path) as f:
        data = json.load(f)
    return data if isinstance(data, list) else [data]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """Returns (verdict, win fraction) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_frac = wins / len(pairs)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_lo, p_hi = quartiles(parent)
    gain = sign * (c_med - p_med)
    if win_frac >= 0.9 and gain > p_hi - p_lo:
        return "improved", win_frac
    if -gain > bound * abs(p_med):
        return "regressed", win_frac
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (p_hi - p_lo) > bound * abs(p_med) and not all_better:
        return "unresolved", win_frac
    return "unchanged", win_frac


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", nargs="+", help="run records, alternating parent and change")
    ap.add_argument("--bench", default=str(DEFAULT_BENCH), help="path to BENCHMARK.json")
    args = ap.parse_args()
    if len(args.runs) % 2:
        ap.error("runs must alternate parent and change: give an even number")

    with open(args.bench) as f:
        bench = json.load(f)
    sides = {"parent": {}, "change": {}}
    for i, path in enumerate(args.runs):
        side = sides["parent" if i % 2 == 0 else "change"]
        for run in load_runs(path):
            if not run.get("correct", False):
                print("%s: run marked incorrect; it cannot be compared" % path, file=sys.stderr)
                return 2
            side.setdefault(run["workload"], []).append(run)

    header = "%-11s %-17s %-30s %-30s %5s  %s" % (
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins",
        "verdict")
    print(header)
    regressed = False
    for workload in sorted(set(sides["parent"]) & set(sides["change"])):
        p_runs, c_runs = sides["parent"][workload], sides["change"][workload]
        n = min(len(p_runs), len(c_runs))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in p_runs[:n] if name in r["metrics"]]
            change = [r["metrics"][name]["value"] for r in c_runs[:n] if name in r["metrics"]]
            if not parent or len(parent) != len(change):
                continue
            v, win_frac = verdict(parent, change, metric["better"], metric["bound"])
            regressed = regressed or v == "regressed"
            cells = []
            for values in (parent, change):
                lo, hi = quartiles(values)
                cells.append("%.5g [%.5g, %.5g]" % (statistics.median(values), lo, hi))
            print("%-11s %-17s %-30s %-30s %5.2f  %s" % (
                workload, name, cells[0], cells[1], win_frac, v))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
