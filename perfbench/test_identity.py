#!/usr/bin/env python3
"""Configuration identity: the benchmark's workloads are the configurations
the ROADMAP's A16/A18 numbers come from.

    python3 perfbench/test_identity.py

Builds bench/serve_trace and bench/catalog_scale from the repository's own
CMake project (in .bench_build/identity) and the benchmark (as run.py
does), then checks that
  * serve_drift reproduces the table rows of
    `serve_trace --requests 1000000 --seed S --csv` at the same seed, and
  * catalog_contended reproduces the K=1000 row of
    `catalog_scale --objects 1000 --csv` at the same seed.
Takes about two minutes, most of it in the two K=1000 solves.
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build step)

IDENTITY_BUILD = os.path.join(run.ROOT, ".bench_build", "identity")
SERVE_REQUESTS = 1000000  # serve_drift's request count


def quiet(command):
    """Runs a build step, showing its output only if it fails."""
    out = subprocess.run(command, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise RuntimeError("failed: " + " ".join(command))


def build_repo_benches():
    if not os.path.isfile(os.path.join(IDENTITY_BUILD, "CMakeCache.txt")):
        quiet(["cmake", "-S", run.ROOT, "-B", IDENTITY_BUILD,
               "-DCMAKE_BUILD_TYPE=Release"])
    quiet(["cmake", "--build", IDENTITY_BUILD, "-j",
           str(min(4, os.cpu_count() or 1)),
           "--target", "serve_trace", "catalog_scale"])


def table_rows(command):
    """The CSV rows of a bench's table: everything but comment lines."""
    out = subprocess.run(command, check=True, capture_output=True,
                         text=True).stdout
    return [line for line in out.splitlines()
            if line and not line.startswith("#")]


class ConfigurationIdentity(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.perfbench = run.build()
        build_repo_benches()

    def bench(self, name):
        return os.path.join(IDENTITY_BUILD, "bench", name)

    def test_serve_drift_reproduces_serve_trace(self):
        for seed in (20260809, 7):
            with self.subTest(seed=seed):
                expected = table_rows(
                    [self.bench("serve_trace"), "--requests",
                     str(SERVE_REQUESTS), "--seed", str(seed), "--csv"])
                actual = table_rows(
                    [self.perfbench, "--table", "serve_drift", "--seed",
                     str(seed)])
                self.assertEqual(len(expected), 4)  # header + 3 policies
                self.assertEqual(actual, expected)

    def test_catalog_contended_reproduces_catalog_scale(self):
        expected = table_rows(
            [self.bench("catalog_scale"), "--objects", "1000", "--seed", "1",
             "--csv"])
        actual = table_rows(
            [self.perfbench, "--table", "catalog_contended", "--seed", "1"])
        self.assertEqual(len(expected), 2)  # header + the K=1000 row
        self.assertEqual(actual, expected)


if __name__ == "__main__":
    unittest.main()
