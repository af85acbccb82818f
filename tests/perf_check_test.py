"""Unit tests for scripts/perf_check.py.

Focus: the missing-benchmark policy. A benchmark present in the baseline
but absent from the fresh capture must HARD-FAIL (even under
--warn-only) unless explicitly waived with --allow-missing — a silently
vanished benchmark is a coverage regression, not noise.

Run directly (python3 tests/perf_check_test.py) or via ctest.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "scripts", "perf_check.py")


def bench_json(times_ns):
    """google-benchmark JSON with one iteration row per {name: ns}."""
    return {
        "benchmarks": [
            {"name": name, "run_name": name, "run_type": "iteration",
             "real_time": ns, "time_unit": "ns"}
            for name, ns in times_ns.items()
        ]
    }


class PerfCheckTest(unittest.TestCase):
    def run_check(self, baseline, current, *extra_args):
        with tempfile.TemporaryDirectory() as tmp:
            baseline_path = os.path.join(tmp, "baseline.json")
            current_path = os.path.join(tmp, "current.json")
            with open(baseline_path, "w", encoding="utf-8") as fh:
                json.dump(bench_json(baseline), fh)
            with open(current_path, "w", encoding="utf-8") as fh:
                json.dump(bench_json(current), fh)
            proc = subprocess.run(
                [sys.executable, SCRIPT, "--baseline", baseline_path,
                 "--current", current_path, *extra_args],
                capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout

    def test_matching_benchmarks_pass(self):
        code, out = self.run_check({"BM_A": 100.0}, {"BM_A": 101.0})
        self.assertEqual(code, 0, out)
        self.assertIn("OK", out)

    def test_regression_beyond_hard_fail_fails(self):
        code, out = self.run_check({"BM_A": 100.0}, {"BM_A": 500.0})
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL", out)

    def test_warn_only_downgrades_tolerance_breach(self):
        code, out = self.run_check({"BM_A": 100.0}, {"BM_A": 200.0},
                                   "--warn-only")
        self.assertEqual(code, 0, out)
        self.assertIn("WARN", out)

    def test_missing_baseline_benchmark_hard_fails(self):
        code, out = self.run_check({"BM_A": 100.0, "BM_Gone": 50.0},
                                   {"BM_A": 100.0})
        self.assertEqual(code, 1, out)
        self.assertIn("MISSING: BM_Gone", out)
        self.assertIn("FAIL", out)

    def test_missing_benchmark_fails_even_with_warn_only(self):
        code, out = self.run_check({"BM_A": 100.0, "BM_Gone": 50.0},
                                   {"BM_A": 100.0}, "--warn-only")
        self.assertEqual(code, 1, out)
        self.assertIn("MISSING: BM_Gone", out)

    def test_allow_missing_waives_the_failure(self):
        code, out = self.run_check({"BM_A": 100.0, "BM_Gone": 50.0},
                                   {"BM_A": 100.0}, "--allow-missing")
        self.assertEqual(code, 0, out)
        self.assertIn("waived", out)

    def test_new_benchmark_in_current_run_is_a_note_not_a_failure(self):
        code, out = self.run_check({"BM_A": 100.0},
                                   {"BM_A": 100.0, "BM_New": 10.0})
        self.assertEqual(code, 0, out)
        self.assertIn("only in current run", out)

    def test_median_aggregates_preferred_over_iterations(self):
        baseline = bench_json({"BM_A": 100.0})
        current = bench_json({"BM_A": 900.0})  # noisy iteration row...
        current["benchmarks"].append(
            {"name": "BM_A_median", "run_name": "BM_A",
             "run_type": "aggregate", "aggregate_name": "median",
             "real_time": 102.0, "time_unit": "ns"})
        with tempfile.TemporaryDirectory() as tmp:
            baseline_path = os.path.join(tmp, "baseline.json")
            current_path = os.path.join(tmp, "current.json")
            with open(baseline_path, "w", encoding="utf-8") as fh:
                json.dump(baseline, fh)
            with open(current_path, "w", encoding="utf-8") as fh:
                json.dump(current, fh)
            proc = subprocess.run(
                [sys.executable, SCRIPT, "--baseline", baseline_path,
                 "--current", current_path],
                capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_help_exits_zero(self):
        # argparse %-formats help strings, so a literal % must be escaped.
        proc = subprocess.run([sys.executable, SCRIPT, "--help"],
                              capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("--tolerance", proc.stdout)


if __name__ == "__main__":
    unittest.main()
