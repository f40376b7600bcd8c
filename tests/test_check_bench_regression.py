#!/usr/bin/env python3
"""Self-test of scripts/check_bench_regression.py: the gate must pass a
baseline against itself (and a report within its ceilings) and fail each
kind of breach it claims to catch.

Every input is a temporary copy of bench/baselines/suite.json, edited in
memory; no checked-in file changes. Run directly or through ctest.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "check_bench_regression.py")
BASELINE = os.path.join(ROOT, "bench", "baselines", "suite.json")


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        with open(BASELINE) as f:
            self.rows = json.load(f)
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def gate(self, current):
        """Runs the script on CURRENT (rows) against the baseline and
        returns its exit status."""
        path = os.path.join(self.tmp.name, "current.json")
        with open(path, "w") as f:
            json.dump(current, f)
        return subprocess.run([sys.executable, SCRIPT, path, BASELINE],
                              stdout=subprocess.DEVNULL).returncode

    def counter_rows(self, rows):
        return [r for r in rows if r.get("kind") == "suite_counters"]

    def test_baseline_passes_against_itself(self):
        self.assertEqual(self.gate(self.rows), 0)

    def test_changed_counter_fails(self):
        rows = copy.deepcopy(self.rows)
        self.counter_rows(rows)[0]["states"] += 1
        self.assertEqual(self.gate(rows), 1)

    def test_removed_row_fails(self):
        rows = copy.deepcopy(self.rows)
        rows.remove(self.counter_rows(rows)[-1])
        self.assertEqual(self.gate(rows), 1)

    def test_disagreeing_agreement_row_fails(self):
        rows = copy.deepcopy(self.rows)
        rows.append({"kind": "sat_agreement", "sketch": "queueE1",
                     "test": "ed(ee|dd)", "agrees": False})
        self.assertEqual(self.gate(rows), 1)

    def verify_report(self, bytes_per_state):
        """A W=1 bench_suite report of `verify` carrying the baseline's
        counter rows and the given per-layer bytes per state."""
        prov = dict(next(r for r in self.rows
                         if r.get("kind") == "provenance"))
        prov.pop("kind")
        rows = [{k: v for k, v in r.items() if k not in ("kind", "workload")}
                for r in self.counter_rows(self.rows)
                if r["workload"] == "verify"]
        per_layer = {}
        if bytes_per_state is not None:
            per_layer["verify.bytes_per_state"] = {"value": bytes_per_state,
                                                   "unit": "B"}
        return {"workload": "verify", "provenance": prov, "rows": rows,
                "per_layer": per_layer}

    def test_bytes_per_state_under_ceiling_passes(self):
        self.assertEqual(self.gate(self.verify_report(38.7)), 0)

    def test_bytes_per_state_over_ceiling_fails(self):
        self.assertEqual(self.gate(self.verify_report(65.4)), 1)

    def test_missing_bytes_per_state_fails(self):
        self.assertEqual(self.gate(self.verify_report(None)), 1)


if __name__ == "__main__":
    unittest.main()
