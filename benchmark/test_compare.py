#!/usr/bin/env python3
"""Tests of benchmark/compare.py's verdicts.

    python3 benchmark/test_compare.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


class VerdictTest(unittest.TestCase):

    def test_improved_needs_ten_pairs_nine_wins_and_gap_over_iqr(self):
        change = [v - 10.0 for v in PARENT]
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.05),
                         "improved")
        # The same gain over five pairs is not enough to claim it.
        self.assertEqual(
            compare.verdict(PARENT[:5], change[:5], "lower", 0.05),
            "unchanged")

    def test_improved_respects_direction(self):
        change = [v + 10.0 for v in PARENT]
        self.assertEqual(compare.verdict(PARENT, change, "higher", 0.05),
                         "improved")
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.05),
                         "worse")

    def test_gap_within_parent_iqr_is_not_a_gain(self):
        noisy = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0,
                 100.0]
        change = [v - 1.0 for v in noisy]
        self.assertNotEqual(compare.verdict(noisy, change, "lower", 0.5),
                            "improved")

    def test_worse_beyond_relative_bound(self):
        change = [v * 1.12 for v in PARENT]
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.10),
                         "worse")
        self.assertEqual(compare.verdict(PARENT, change, "lower", 0.15),
                         "unchanged")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 75.0, 125.0, 100.0,
                 100.0]
        change = [v * 1.02 for v in noisy]
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.05),
                         "unresolved")

    def test_wide_spread_is_unchanged_when_every_change_run_is_better(self):
        noisy = [100.0, 140.0, 110.0, 130.0, 120.0]
        change = [95.0, 96.0, 97.0, 98.0, 99.0]
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.05),
                         "unchanged")

    def test_ties_count_for_neither_side(self):
        parent = [100.0] * 10
        one_tie = [90.0] * 9 + [100.0]
        two_ties = [90.0] * 8 + [100.0] * 2
        self.assertEqual(compare.verdict(parent, one_tie, "lower", 0.05),
                         "improved")
        self.assertEqual(compare.verdict(parent, two_ties, "lower", 0.05),
                         "unchanged")

    def test_absolute_bound_fail_frac(self):
        clean = [0.0] * 10
        self.assertEqual(compare.verdict(clean, clean, "lower", 0.0, True),
                         "unchanged")
        one_failure = [0.0] * 4 + [0.001] * 6
        self.assertEqual(
            compare.verdict(clean, one_failure, "lower", 0.0, True),
            "worse")

    def test_absolute_bound_cpi_error(self):
        err = [7.133716118] * 10
        self.assertEqual(compare.verdict(err, list(err), "lower", 0.0, True),
                         "unchanged")
        self.assertEqual(
            compare.verdict(err, [e + 1e-6 for e in err], "lower", 0.0,
                            True),
            "worse")
        self.assertEqual(
            compare.verdict(err, [e - 0.5 for e in err], "lower", 0.0, True),
            "improved")

    def test_per_layer_metrics_without_bound(self):
        exact = [804540.0] * 10
        self.assertEqual(compare.verdict(exact, exact, "lower", None),
                         "unchanged")
        self.assertEqual(
            compare.verdict(PARENT, [v + 0.1 for v in PARENT], "lower",
                            None),
            "unresolved")


class CompareTest(unittest.TestCase):

    SPEC = {"end_to_end": [{"name": "throughput", "unit": "items/s",
                            "better": "higher", "bound": 0.05}],
            "per_layer": [{"name": "timing.cycles", "unit": "count",
                           "better": "lower"}]}

    @staticmethod
    def run_record(workload, throughput, failed=0, trace=0, info=None):
        metrics = {"timing.cycles": {"value": 5.0, "unit": "count"}} \
            if trace else {"throughput": {"value": throughput,
                                          "unit": "items/s"}}
        return {"workload": workload, "trace": trace, "attempted": 100,
                "failed": failed, "metrics": metrics, "info": info or {}}

    def test_one_row_per_metric_and_workload(self):
        info = {"cpi_err_rr_pct": 7.0, "cpi_err_gto_pct": 17.0}
        parent = [self.run_record("validate", 8.0, info=info)
                  for _ in range(10)]
        parent += [self.run_record("explore", 5.0) for _ in range(10)]
        parent.append(self.run_record("explore", 0.0, trace=1))
        change = [self.run_record("validate", 8.0, info=info)
                  for _ in range(10)]
        change += [self.run_record("explore", 5.0, failed=1)
                   for _ in range(10)]
        change.append(self.run_record("explore", 0.0, trace=1))
        rows = {(r[0], r[1]): r[-1]
                for r in compare.compare(parent, change, self.SPEC)}
        self.assertEqual(rows[("throughput", "validate")], "unchanged")
        self.assertEqual(rows[("throughput", "explore")], "unchanged")
        self.assertEqual(rows[("fail_frac", "explore")], "worse")
        self.assertEqual(rows[("cpi_err_rr_pct", "validate")], "unchanged")
        self.assertEqual(rows[("timing.cycles", "explore")], "unchanged")
        self.assertNotIn(("cpi_err_rr_pct", "explore"), rows)


if __name__ == "__main__":
    unittest.main()
