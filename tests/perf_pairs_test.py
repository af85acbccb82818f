"""Unit tests for scripts/perf_pairs.py: pair ordering, quantiles and the
per-metric summary. No benchmark is run.

Run directly (python3 tests/perf_pairs_test.py) or via ctest.
"""

import importlib.util
import os
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "scripts", "perf_pairs.py")
spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
perf_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_pairs)


class PairOrderTest(unittest.TestCase):
    def test_sides_alternate_first_place(self):
        self.assertEqual(perf_pairs.pair_order(0), ("base", "change"))
        self.assertEqual(perf_pairs.pair_order(1), ("change", "base"))
        self.assertEqual(perf_pairs.pair_order(2), ("base", "change"))

    def test_each_side_runs_once_per_pair(self):
        for index in range(5):
            self.assertEqual(sorted(perf_pairs.pair_order(index)),
                             ["base", "change"])


class QuantileTest(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(perf_pairs.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(perf_pairs.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        self.assertEqual(perf_pairs.median([7.0]), 7.0)

    def test_quartiles_interpolate_linearly(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.assertEqual(perf_pairs.quantile(values, 0.25), 2.0)
        self.assertEqual(perf_pairs.quantile(values, 0.75), 4.0)
        self.assertEqual(perf_pairs.quantile([1.0, 2.0], 0.25), 1.25)
        self.assertEqual(perf_pairs.quantile(values, 0.0), 1.0)
        self.assertEqual(perf_pairs.quantile(values, 1.0), 5.0)


class SummarizeTest(unittest.TestCase):
    PAIRS = [
        {"base": {"wall_s": 0.40, "cost": 5.0},
         "change": {"wall_s": 0.20, "cost": 5.0}},
        {"base": {"wall_s": 0.30, "cost": 5.0},
         "change": {"wall_s": 0.35, "cost": 5.0}},
        {"base": {"wall_s": 0.50, "cost": 5.0},
         "change": {"wall_s": 0.10, "cost": 5.0}},
    ]

    def test_medians_ratio_and_wins(self):
        summary = perf_pairs.summarize(
            self.PAIRS, {"wall_s": "lower", "cost": "lower"})
        wall = summary["wall_s"]
        self.assertEqual(wall["base_median"], 0.40)
        self.assertEqual(wall["change_median"], 0.20)
        self.assertAlmostEqual(wall["ratio"], 0.5)
        self.assertEqual(wall["change_better"], 2)
        self.assertEqual(summary["cost"]["change_better"], 0)  # ties
        self.assertEqual(summary["cost"]["ratio"], 1.0)

    def test_higher_is_better_counts_increases(self):
        summary = perf_pairs.summarize(self.PAIRS, {"wall_s": "higher"})
        self.assertEqual(summary["wall_s"]["change_better"], 1)

    def test_unknown_direction_has_no_win_count(self):
        summary = perf_pairs.summarize(self.PAIRS, {})
        self.assertNotIn("change_better", summary["wall_s"])

    def test_zero_base_median_has_no_ratio(self):
        pairs = [{"base": {"n": 0}, "change": {"n": 1}}]
        self.assertIsNone(perf_pairs.summarize(pairs, {})["n"]["ratio"])


if __name__ == "__main__":
    unittest.main()
