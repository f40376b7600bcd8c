#!/usr/bin/env python3
"""Compares two sets of bench_suite reports: a parent and a change.

    python3 bench_suite/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds the reports bench_suite writes with --json-dir, one
per run. Runs pair up by workload, seed and trace flag. For every workload
and end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, how many pairs the change won, and a verdict:

  better     the change wins at least 9 in 10 pairs (ties count for
             neither) and the medians differ by more than the parent's
             quartile spread;
  worse      the change's median is worse than the parent's by more than
             the metric's bound;
  unresolved the parent's own quartile spread is wider than the bound,
             unless every change run beats every parent run;
  unchanged  otherwise.

It also diffs the per-row work counters, which repeat exactly with one
checker worker (with more, all but the state count). It refuses to
compare runs whose provenance differs: CPU model, SIMD mode, build type
or hardware thread count. Exit status: 0 when nothing got worse and the
counters agree, 1 otherwise, 2 on a refusal or bad input. Standard
library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

PROVENANCE_KEYS = ["cpu_model", "simd", "build_type", "nproc"]
COUNTER_KEYS = ["resolvable", "iterations", "solve_calls", "interval_prunes",
                "conflicts", "gates", "clauses", "states"]


def load(directory):
    """Reports keyed by file name, which names workload, seed and trace."""
    reports = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            reports[os.path.basename(path)] = json.load(f)
    if not reports:
        print(f"compare.py: no reports in {directory}", file=sys.stderr)
        sys.exit(2)
    return reports


def spread(values):
    """Median, first and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(parent, change, pairs, bound, lower_is_better):
    better = (lambda a, b: a < b) if lower_is_better else (lambda a, b: a > b)
    p_med, p_q1, p_q3 = spread(parent)
    c_med = spread(change)[0]
    wins = sum(1 for p, c in pairs if better(c, p))
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound:
        if all(better(c, p) for c in change for p in parent):
            return "better", wins
        return "unresolved", wins
    if (pairs and wins >= 0.9 * len(pairs) and better(c_med, p_med)
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "better", wins
    worse_by = (c_med - p_med) if lower_is_better else (p_med - c_med)
    if worse_by > bound * abs(p_med):
        return "worse", wins
    return "unchanged", wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    parent, change = load(args.parent), load(args.change)

    provenance = {tuple(r["provenance"][k] for k in PROVENANCE_KEYS)
                  for r in list(parent.values()) + list(change.values())}
    if len(provenance) != 1:
        print("compare.py: refusing to compare runs of differing provenance "
              f"({', '.join(PROVENANCE_KEYS)}):", file=sys.stderr)
        for p in sorted(provenance, key=str):
            print(f"  {p}", file=sys.stderr)
        return 2

    status = 0
    workloads = sorted({r["workload"]
                        for r in list(parent.values()) + list(change.values())})
    print(f"{'workload':10} {'metric':13} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>7}  verdict")
    for w in workloads:
        keys = sorted(k for k, r in parent.items()
                      if r["workload"] == w and k in change)
        p_runs = [r for r in parent.values() if r["workload"] == w]
        c_runs = [r for r in change.values() if r["workload"] == w]
        if not p_runs or not c_runs:
            print(f"{w:10} only one side has runs; skipped")
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            pairs = [(parent[k]["metrics"][name]["value"],
                      change[k]["metrics"][name]["value"]) for k in keys]
            v, wins = verdict(p_vals, c_vals, pairs, m["bound"],
                              m["better"] == "lower")
            if v == "worse":
                status = 1
            pm, pq1, pq3 = spread(p_vals)
            cm, cq1, cq3 = spread(c_vals)
            print(f"{w:10} {name:13} {pm:12.6f} [{pq1:.6f}, {pq3:.6f}] "
                  f"{cm:12.6f} [{cq1:.6f}, {cq3:.6f}] "
                  f"{wins:3}/{len(pairs):<3}  {v}")
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            if failed:
                status = 1
                print(f"{w:10} {side}: {failed} of {attempted} row runs failed")

        # Work counters: every run of both sides must agree row by row.
        one_worker = p_runs[0]["provenance"]["workers"] == 1
        keys_compared = COUNTER_KEYS if one_worker else COUNTER_KEYS[:-1]
        reference = {row["row"]: row for row in p_runs[0]["rows"]}
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            for r in runs:
                for row in r["rows"]:
                    ref = reference.get(row["row"])
                    if ref is None:
                        diffs = ["not in the first parent run"]
                    else:
                        diffs = [f"{k} {ref[k]} -> {row[k]}"
                                 for k in keys_compared if row[k] != ref[k]]
                    if diffs:
                        status = 1
                        print(f"{w:10} {side} seed {r['seed']}: {row['row']}: "
                              + ", ".join(diffs))
    return status


if __name__ == "__main__":
    sys.exit(main())
