#!/usr/bin/env python3
"""End-to-end benchmark of trace serving and catalog solves.

Run from the repository root:

    python3 perfbench/run.py --workload serve_drift --seed 1 \
        --seconds 40 --trace 0

Builds perfbench/ (which compiles the library from src/) in
.bench_build/perfbench on first use, runs one workload and prints, as the
last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. The line before it is the
run manifest. Both, with the traced run's spans, are also written under
.bench_build/perfbench/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("serve_drift", "catalog_contended", "catalog_bulk")

# The layers each workload runs. A per-layer metric of any other layer is
# reported as 0 on that workload: the layer does no work there.
LAYERS = {
    "serve_drift": ("serve.", "sim.", "fs.", "net.", "trace.", "process."),
    "catalog_contended": ("catalog.", "core.", "runtime.", "net.", "trace.",
                          "process."),
    "catalog_bulk": ("catalog.", "core.", "runtime.", "net.", "trace.",
                     "process."),
}

RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as done:
                    sys.stderr.write(done.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return BINARY


def source_digest():
    """SHA-256 over the library sources: identifies the measured program
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def git_revision():
    if shutil.which("git") is None or not os.path.isdir(
            os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def select_metrics(spec, workload, trace, values):
    """The metrics the contract asks for, with their units."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in values:
            value = values[name]
        elif trace and not name.startswith(LAYERS[workload]):
            value = 0
        else:
            fail("%s did not report %s" % (workload, name))
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    binary = build()

    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = "%s.seed%s.trace%d" % (args.workload, args.seed, args.trace)
    spans_path = os.path.join(results_dir, stem + ".spans.json")
    command = [binary, "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans", spans_path, "--scratch", results_dir]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("%s exited with code %d" % (args.workload, run.returncode))
    report = json.loads(lines[-1])

    manifest = dict(report["manifest"])
    manifest.update({
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "run_seconds": args.seconds,
        "failed_frac": report["failed"] / max(1, report["attempted"]),
        "violations": report["violations"],
    })
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": select_metrics(spec, args.workload, args.trace,
                                  report["values"]),
    }
    with open(os.path.join(results_dir, stem + ".json"), "w") as f:
        json.dump({"manifest": manifest, "result": result,
                   "values": report["values"],
                   "spans": spans_path if args.trace else None}, f, indent=1)
    for violation in report["violations"]:
        print("perfbench: violation: " + violation, file=sys.stderr)
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
