#!/usr/bin/env python3
"""Alternating A/B pairs of perfbench runs on two checkouts.

    python3 scripts/perf_pairs.py BASE CHANGE --workload catalog_bulk \\
        --pairs 10 --seconds 10 [--seed 1] [--trace 0]

BASE and CHANGE are checkout roots (for example two `git worktree`s, or
an unpacked `git archive`); each is built by its own perfbench/run.py
into its own .bench_build/. Pair i runs both checkouts back to back,
BASE first in even pairs and CHANGE first in odd ones, so a machine that
drifts in speed over minutes loads both sides alike. The script prints
every pair, then per metric the median and quartiles of each side, the
median ratio CHANGE/BASE, and in how many pairs CHANGE was better
(direction from BASE's BENCHMARK.json). Nothing is written to disk.
"""

import argparse
import json
import os
import subprocess
import sys


def pair_order(index):
    """Which side runs first in pair `index`: ("base", "change") or the
    reverse, alternating so that neither side always runs first."""
    return ("base", "change") if index % 2 == 0 else ("change", "base")


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list (numpy's default
    method), q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def summarize(pairs, better):
    """Per-metric summary of a list of {"base": {m: v}, "change": {m: v}}
    pairs. `better` maps a metric name to "lower" or "higher" (metrics
    missing from it get no win count). Returns {metric: dict}."""
    summary = {}
    names = sorted(set(pairs[0]["base"]) & set(pairs[0]["change"]))
    for name in names:
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        row = {
            "base_median": median(base),
            "base_q1": quantile(base, 0.25),
            "base_q3": quantile(base, 0.75),
            "change_median": median(change),
            "change_q1": quantile(change, 0.25),
            "change_q3": quantile(change, 0.75),
        }
        row["ratio"] = (row["change_median"] / row["base_median"]
                        if row["base_median"] != 0 else None)
        direction = better.get(name)
        if direction in ("lower", "higher"):
            sign = 1 if direction == "higher" else -1
            row["change_better"] = sum(
                1 for b, c in zip(base, change) if sign * (c - b) > 0)
        summary[name] = row
    return summary


def directions(checkout):
    """metric -> "lower"/"higher" from the checkout's BENCHMARK.json."""
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {entry["name"]: entry["better"]
            for key in ("end_to_end", "per_layer")
            for entry in spec.get(key, [])}


def run_once(checkout, args):
    """One perfbench run; returns {metric: value}."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", args.workload, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    run = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                         text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit("perf_pairs: %s failed in %s (exit %d)"
                 % (args.workload, checkout, run.returncode))
    result = json.loads(lines[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"base": os.path.abspath(args.base),
                 "change": os.path.abspath(args.change)}

    pairs = []
    for index in range(args.pairs):
        pair = {}
        for side in pair_order(index):
            pair[side] = run_once(checkouts[side], args)
        pairs.append(pair)
        print("pair %d (%s first)" % (index, pair_order(index)[0]))
        # repr() round-trips, so equal printed values are equal bits.
        for name in sorted(pair["base"]):
            print("  %-36s %r -> %r" % (
                name, pair["base"][name], pair["change"].get(name)))
        sys.stdout.flush()

    print("summary over %d pairs (base -> change: median [q1, q3])"
          % len(pairs))
    for name, row in summarize(pairs, directions(args.base)).items():
        line = "  %-36s %.6g [%.6g, %.6g] -> %.6g [%.6g, %.6g]" % (
            name, row["base_median"], row["base_q1"], row["base_q3"],
            row["change_median"], row["change_q1"], row["change_q3"])
        if row["ratio"] is not None:
            line += "  ratio %.4f" % row["ratio"]
        if "change_better" in row:
            line += "  change better in %d/%d" % (row["change_better"],
                                                   len(pairs))
        print(line)


if __name__ == "__main__":
    main()
