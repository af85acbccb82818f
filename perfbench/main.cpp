// The benchmark program; perfbench/run.py builds it and calls it.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH] [--scratch DIR]
//   perfbench --table NAME [--seed N]
//
// The first form runs one workload and prints, as its last stdout line,
// one JSON object: correctness, operation counts, the measured values,
// the violations found and the run manifest. The second prints the
// workload's result table in the layout of the matching bench binary,
// for the configuration-identity test.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "core/batch_allocator.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace {

using perfbench::RunConfig;
using perfbench::RunResult;

constexpr std::size_t kContendedObjects = 1000;
constexpr std::size_t kBulkObjects = 100000;
constexpr std::uint64_t kServeDefaultSeed = 20260809;
constexpr std::uint64_t kCatalogDefaultSeed = 1;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH] [--scratch DIR]\n"
               "       perfbench --table NAME [--seed N]\n"
               "workloads: serve_drift catalog_contended catalog_bulk\n",
               message);
  std::exit(2);
}

bool is_workload(const std::string& name) {
  return name == "serve_drift" || name == "catalog_contended" ||
         name == "catalog_bulk";
}

std::uint64_t default_seed(const std::string& workload) {
  return workload == "serve_drift" ? kServeDefaultSeed : kCatalogDefaultSeed;
}

std::uint64_t parse_count(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return value;
}

double parse_seconds(const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(value > 0.0) || value > 3600.0) {
    usage("--seconds must be in (0, 3600]");
  }
  return value;
}

/// The batch kernel set the allocator dispatches to on this machine,
/// read from BatchAllocator::Stats after one tiny instance.
std::string batch_kernels() {
  fap::core::BatchAllocator batch(1);
  const double access[2] = {1.0, 2.0};
  const double mu[2] = {1.0, 1.0};
  const double start[2] = {0.5, 0.5};
  fap::core::BatchAllocator::RawInstance raw;
  raw.n = 2;
  raw.total_rate = 0.5;
  raw.k = 1.0;
  raw.access_cost = access;
  raw.mu = mu;
  raw.start = start;
  batch.submit(raw, fap::core::AllocatorOptions{});
  batch.run_all();
  return batch.stats().kernels;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool optimized_build() {
  const std::string type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  return type == "Release" || type == "RelWithDebInfo";
#else
  return false;
#endif
}

int run_table(const std::string& workload, std::uint64_t seed) {
  if (workload == "serve_drift") {
    std::cout << perfbench::serve_drift_table(seed);
  } else if (workload == "catalog_contended") {
    std::cout << perfbench::catalog_table(seed, kContendedObjects);
  } else {
    std::cout << perfbench::catalog_table(seed, kBulkObjects);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string table;
  std::string spans_path;
  RunConfig config;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--table") {
      table = value;
    } else if (flag == "--seed") {
      config.seed = parse_count(value, "--seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = parse_seconds(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::string trace = value;
      if (trace != "0" && trace != "1") {
        usage("--trace must be 0 or 1");
      }
      config.trace = trace == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      spans_path = value;
    } else if (flag == "--scratch") {
      config.scratch_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }

  if (!table.empty()) {
    if (!is_workload(table)) {
      usage("--table needs a workload name");
    }
    return run_table(table, have_seed ? config.seed : default_seed(table));
  }
  if (!is_workload(workload)) {
    usage("--workload needs a workload name");
  }
  if (!have_seconds || !have_trace) {
    usage("--seconds and --trace are required");
  }
  if (!have_seed) {
    config.seed = default_seed(workload);
  }
  // Timings from an unoptimized build are 5-20x off and would poison every
  // comparison made against them.
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  RunResult result;
  try {
    result = workload == "serve_drift"
                 ? perfbench::run_serve_drift(config)
                 : perfbench::run_catalog(config, workload == "catalog_bulk"
                                                      ? kBulkObjects
                                                      : kContendedObjects);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  if (!spans_path.empty() && !result.spans_json.empty()) {
    std::ofstream(spans_path) << result.spans_json << '\n';
  }

  fap::util::JsonWriter json;
  json.begin_object();
  json.key("correct").value(result.violations.empty() && result.failed == 0);
  json.key("attempted").value(static_cast<std::size_t>(result.attempted));
  json.key("failed").value(static_cast<std::size_t>(result.failed));
  json.key("values").begin_object();
  for (const auto& [name, value] : result.values) {
    json.key(name).value(value);
  }
  json.end_object();
  json.key("violations").begin_array();
  for (const std::string& v : result.violations) {
    json.value(v);
  }
  json.end_array();
  json.key("manifest").begin_object();
  json.key("workload").value(workload);
  json.key("seed").value(static_cast<std::size_t>(config.seed));
  json.key("seconds").value(config.seconds);
  json.key("trace").value(config.trace);
  json.key("jobs").value(std::size_t{1});
  json.key("build_type").value(PERFBENCH_BUILD_TYPE);
  json.key("simd_kernels").value(batch_kernels());
  json.key("compiler").value(compiler());
  json.key("nproc").value(
      static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.end_object();
  json.end_object();
  std::cout << json.str() << std::endl;
  return 0;
}
