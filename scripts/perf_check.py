#!/usr/bin/env python3
"""Compare a fresh micro-benchmark run against the committed baseline.

    scripts/perf_check.py [--baseline BENCH_micro.json] [--current RUN.json]
                          [--tolerance 1.5] [--hard-fail 3.0] [--warn-only]

Both inputs are google-benchmark JSON files (as written by
scripts/perf_baseline.sh). Benchmarks are matched by name using the
median aggregate when repetitions were recorded (falling back to the
single reported time otherwise). For each benchmark present in both
files the ratio current/baseline is reported:

  ratio <= tolerance           OK
  tolerance < ratio < hard-fail  WARN (exit 1, or 0 with --warn-only)
  ratio >= hard-fail           FAIL (exit 1 always: a 3x regression is
                               never timer noise, even on a busy CI box)

Benchmarks present only in the current run are listed but do not fail
the check, so adding a benchmark does not require regenerating the
baseline in the same commit. Benchmarks present only in the BASELINE are
a hard failure (even with --warn-only): a benchmark that silently stops
running is exactly the regression this check exists to catch — a rename
or deletion must be accompanied by a baseline refresh, or explicitly
waived with --allow-missing.
"""

from __future__ import annotations

import argparse
import json
import sys


def build_type(path: str) -> str:
    """Best-effort build type recorded in a benchmark JSON's context.

    bench/micro_perf stamps ``fap_build_type`` (release/debug, from
    NDEBUG in the benchmark binary itself). Older captures lack it; fall
    back to google-benchmark's ``library_build_type``, which describes
    how libbenchmark was compiled — usually, but not always, the same
    toolchain configuration. Returns "" when neither is present.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    context = data.get("context", {})
    return str(context.get("fap_build_type",
                           context.get("library_build_type", ""))).lower()


def load_times(path: str) -> dict[str, float]:
    """Benchmark name -> real time in ns (medians preferred)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    singles: dict[str, float] = {}
    medians: dict[str, float] = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("run_name", bench.get("name", ""))
        time = bench.get("real_time")
        if not name or time is None:
            continue
        if bench.get("aggregate_name") == "median":
            medians[name] = float(time)
        elif bench.get("run_type", "iteration") == "iteration":
            # Non-aggregate rows: keep the last (benchmark emits one row
            # per repetition; without aggregates there is exactly one).
            singles[name] = float(time)
    return {**singles, **medians}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="micro-benchmark regression check")
    parser.add_argument("--baseline", default="BENCH_micro.json",
                        help="committed baseline JSON (default: "
                             "BENCH_micro.json)")
    parser.add_argument("--current", required=True,
                        help="fresh run JSON to compare")
    parser.add_argument("--tolerance", type=float, default=1.5,
                        help="warn when current/baseline exceeds this "
                             "(default: 1.5 — sub-millisecond benchmarks "
                             "swing +-30%% with machine frequency/load "
                             "regimes, so a tighter bound cries wolf)")
    parser.add_argument("--hard-fail", type=float, default=3.0,
                        help="always fail at this ratio (default: 3.0)")
    parser.add_argument("--warn-only", action="store_true",
                        help="exit 0 on tolerance breaches below the "
                             "hard-fail ratio (for noisy shared runners); "
                             "does NOT waive missing-benchmark failures")
    parser.add_argument("--allow-missing", action="store_true",
                        help="do not fail when a baseline benchmark is "
                             "absent from the current run (for filtered "
                             "runs, e.g. perf-smoke on a subset)")
    args = parser.parse_args()
    if args.tolerance <= 0 or args.hard_fail < args.tolerance:
        parser.error("need 0 < tolerance <= hard-fail")

    for label, path in (("baseline", args.baseline),
                        ("current", args.current)):
        if build_type(path) == "debug":
            print(f"WARNING: {label} {path} was captured from a DEBUG "
                  f"build; its timings are not comparable to optimized "
                  f"runs (recapture from a Release tree with "
                  f"scripts/perf_baseline.sh)")

    baseline = load_times(args.baseline)
    current = load_times(args.current)
    if not baseline:
        print(f"error: no benchmarks in baseline {args.baseline}")
        return 2
    if not current:
        print(f"error: no benchmarks in current run {args.current}")
        return 2

    shared = sorted(set(baseline) & set(current))
    only_baseline = sorted(set(baseline) - set(current))
    only_current = sorted(set(current) - set(baseline))

    warned = []
    failed = []
    width = max((len(name) for name in shared), default=10)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  ratio")
    for name in shared:
        ratio = current[name] / baseline[name] if baseline[name] > 0 else (
            float("inf") if current[name] > 0 else 1.0)
        if ratio >= args.hard_fail:
            verdict = "FAIL"
            failed.append(name)
        elif ratio > args.tolerance:
            verdict = "WARN"
            warned.append(name)
        else:
            verdict = "ok"
        print(f"{name:<{width}}  {baseline[name]:>10.1f}ns  "
              f"{current[name]:>10.1f}ns  {ratio:5.2f}x  {verdict}")

    missing = []
    for name in only_baseline:
        if args.allow_missing:
            print(f"note: {name} only in baseline (waived by "
                  f"--allow-missing)")
        else:
            print(f"MISSING: {name} in baseline but absent from the "
                  f"current run (deleted or renamed? refresh the baseline "
                  f"with scripts/perf_baseline.sh, or waive an "
                  f"intentionally filtered run with --allow-missing)")
            missing.append(name)
    for name in only_current:
        print(f"note: {name} only in current run (new benchmark; refresh "
              f"the baseline with scripts/perf_baseline.sh)")

    if missing:
        print(f"FAIL: {len(missing)} baseline benchmark(s) missing from "
              f"the current run: {', '.join(missing)}")
        return 1
    if failed:
        print(f"FAIL: {len(failed)} benchmark(s) at >= {args.hard_fail}x "
              f"the baseline: {', '.join(failed)}")
        return 1
    if warned:
        print(f"WARN: {len(warned)} benchmark(s) over the {args.tolerance}x "
              f"tolerance: {', '.join(warned)}")
        return 0 if args.warn_only else 1
    print(f"OK: {len(shared)} benchmark(s) within {args.tolerance}x of the "
          f"baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
