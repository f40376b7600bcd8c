#!/usr/bin/env python3
"""Compare a bench JSON report against a checked-in baseline.

Usage: check_bench_regression.py CURRENT.json BASELINE.json [--tolerance F]

Four gates; any failure exits 1 (bad usage exits 2):

* Exact work counters. CURRENT.json may be a bench_suite report (the
  `<workload>-seed<S>-trace<T>.json` that `bench_suite/run.py --json-dir`
  writes). Its per-row work counters at W=1 (iterations, solve calls,
  interval prunes, conflicts, gates, clauses, states) are deterministic
  and machine-independent, so they must equal the baseline's
  `suite_counters` rows for that workload exactly, on any machine. A row
  missing on either side fails too. To refresh bench/baselines/suite.json
  after a change that is meant to move them, rerun the smoke workloads
  with --json-dir and rewrite the rows from the reports' "rows" arrays.

* Per-layer ceilings. A baseline `layer_ceiling` row names a workload,
  one of its per-layer metrics and a `max`; a W=1 bench_suite report of
  that workload fails when the metric is above the max or missing. Only
  metrics that are deterministic at W=1 belong here (today `verify`'s
  `verify.bytes_per_state`: the visited tables' allocated bytes per
  state, which no timing or machine moves).

* The warm-start ratio. The `ssolve_total_speedup` of a
  `sat_incremental_total` row (bench_sat_incremental) fails when it falls
  more than the tolerance (default 30%) below the baseline's. The ratio
  is timing-derived, so it binds only on the machine that produced the
  baseline: when the two reports' provenance rows disagree on the CPU
  model or on `simd` (the CPU's AVX2 support), the comparison is skipped
  with a notice.

* Agreement flags. A current row whose kind ends in `agreement` (today
  bench_sat_incremental's `sat_agreement` rows) fails when its `agrees`
  or `ok` field is false, unconditionally: agreement is
  machine-independent.

Stdlib only (json/sys); no third-party dependencies.
"""

import json
import sys

# Per-kind (key fields, higher-is-better ratio field). Rows of other kinds
# carry no timing claim and are skipped.
METRICS = {
    # Warm-started solver: total Ssolve over the bench's rows, cold over
    # warm, one row per mode (full or smoke). The ratio is normalized but
    # still timing-derived, hence behind the provenance guard.
    "sat_incremental_total": (("smoke",), "ssolve_total_speedup"),
}

AGREE_FLAGS = ("agrees", "ok")


# Per-kind exact counters: (key fields, counter fields). Unlike the
# METRICS rows these carry no tolerance and no provenance guard.
EXACT = {
    "suite_counters": (("workload", "row"),
                       ("iterations", "solve_calls", "interval_prunes",
                        "conflicts", "gates", "clauses", "states")),
}


def load_rows(path):
    """Loads a bench JSON report as a list of rows. A bench_suite report
    (a dict) becomes its provenance, one suite_counters row per row and
    one layer_values row holding its per-layer metrics."""
    with open(path) as f:
        report = json.load(f)
    if isinstance(report, list):
        return report
    rows = [dict(report.get("provenance", {}), kind="provenance")]
    if rows[0].get("workers") != 1:
        print("check_bench_regression: %s ran with %r checker workers -- "
              "only W=1 counters are exact; skipped"
              % (report.get("workload"), rows[0].get("workers")))
        return rows
    for row in report.get("rows", []):
        rows.append(dict(row, kind="suite_counters",
                         workload=report.get("workload")))
    rows.append({"kind": "layer_values", "workload": report.get("workload"),
                 "values": {name: m.get("value") for name, m
                            in report.get("per_layer", {}).items()}})
    return rows


def check_exact(current, baseline, failures):
    """Compares EXACT rows for every workload the current report has."""
    def keyed(rows):
        out = {}
        for row in rows:
            spec = EXACT.get(row.get("kind"))
            if spec is not None:
                out[(row["kind"],) + tuple(row.get(k) for k in spec[0])] = row
        return out

    cur, base = keyed(current), keyed(baseline)
    present = {ident[:2] for ident in cur}
    compared = 0
    for ident, expected in sorted(base.items()):
        if ident[:2] not in present:
            continue  # another workload's rows
        got = cur.get(ident)
        if got is None:
            failures.append("%s: missing from current report" % (ident,))
            continue
        compared += 1
        for field in EXACT[ident[0]][1]:
            if got.get(field) != expected.get(field):
                failures.append("%s: %s %r vs baseline %r"
                                % (ident, field, got.get(field),
                                   expected.get(field)))
    for ident in sorted(set(cur) - set(base)):
        failures.append("%s: not in the baseline" % (ident,))
    if cur:
        print("check_bench_regression: %d exact-counter rows compared"
              % compared)


def check_ceilings(current, baseline, failures):
    """Compares every baseline layer_ceiling row of a workload the current
    rows carry per-layer values for."""
    values = {row["workload"]: row["values"] for row in current
              if row.get("kind") == "layer_values"}
    for row in baseline:
        if row.get("kind") != "layer_ceiling" or row["workload"] not in values:
            continue
        ident = (row["workload"], row["metric"])
        got = values[row["workload"]].get(row["metric"])
        if got is None:
            failures.append("%s: missing from current report" % (ident,))
        elif got > row["max"]:
            failures.append("%s: %.4g above ceiling %.4g"
                            % (ident, got, row["max"]))
        else:
            print("check_bench_regression: %s %.4g within ceiling %.4g"
                  % (ident, got, row["max"]))


def provenance(rows):
    for row in rows:
        if row.get("kind") == "provenance":
            return row
    return {}


def index(rows):
    out = {}
    for row in rows:
        spec = METRICS.get(row.get("kind"))
        if spec is None:
            continue
        keys, metric = spec
        ident = (row["kind"],) + tuple(row.get(k) for k in keys)
        if metric in row:
            out[ident] = row[metric]
    return out


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    tol = 0.30
    for a in argv[1:]:
        if a.startswith("--tolerance"):
            tol = float(a.split("=", 1)[1] if "=" in a else args.pop())
    if len(args) != 2:
        print(__doc__)
        return 2
    current = load_rows(args[0])
    baseline = load_rows(args[1])

    failures = []
    for row in current:
        for flag in AGREE_FLAGS:
            if row.get("kind", "").endswith("agreement") and row.get(flag) is False:
                failures.append("disagreement row: %s" % json.dumps(row))

    check_exact(current, baseline, failures)
    check_ceilings(current, baseline, failures)

    cur_prov, base_prov = provenance(current), provenance(baseline)
    same_machine = all(
        cur_prov.get(k) == base_prov.get(k) for k in ("cpu_model", "simd")
    )
    if not same_machine:
        print(
            "check_bench_regression: provenance differs "
            "(cpu %r vs %r, simd %r vs %r) -- ratio comparison skipped"
            % (
                cur_prov.get("cpu_model"),
                base_prov.get("cpu_model"),
                cur_prov.get("simd"),
                base_prov.get("simd"),
            )
        )
    else:
        cur, base = index(current), index(baseline)
        compared = 0
        for ident, expected in sorted(base.items()):
            got = cur.get(ident)
            if got is None:
                print("check_bench_regression: %s missing from current report"
                      % (ident,))
                continue
            compared += 1
            if got < expected * (1.0 - tol):
                failures.append(
                    "%s: %.4g vs baseline %.4g (-%.0f%%, tolerance %.0f%%)"
                    % (ident, got, expected, 100 * (1 - got / expected), 100 * tol)
                )
        print("check_bench_regression: %d rows compared, %d regressions"
              % (compared, len(failures)))

    for f in failures:
        print("FAIL: " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
