// The benchmark's workloads. Each one builds its inputs from the seed,
// times public library calls from outside, checks the outputs and
// reports named values; perfbench/run.py attaches the units declared in
// BENCHMARK.json.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 0;
  /// Measurement budget: timed calls repeat while the next one fits in
  /// it (each workload makes at least two calls, however long they take).
  double seconds = 10.0;
  /// Traced run: per-layer values instead of end-to-end ones.
  bool trace = false;
  /// Where a traced run writes its side files (solver task metrics).
  std::string scratch_dir = ".";
};

struct RunResult {
  /// Operations attempted and failed (requests for serving, solves for
  /// the catalog); a failed operation also fails the run.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable correctness violations; any entry fails the run.
  std::vector<std::string> violations;
  std::vector<std::pair<std::string, double>> values;
  /// Spans of the traced run (JSON array), empty when untraced.
  std::string spans_json;

  void set(std::string name, double value) {
    values.emplace_back(std::move(name), value);
  }
  void violation(std::string what) { violations.push_back(std::move(what)); }
};

inline bool bits_equal(double x, double y) {
  return std::memcmp(&x, &y, sizeof x) == 0;
}

inline double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Runs `fn` and returns its wall time in seconds. Under a tracer the
/// call is also recorded as a span named `name`.
template <class Fn>
double timed(Tracer* tracer, const char* name, Fn&& fn) {
  if (tracer == nullptr) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return seconds_since(start);
  }
  const std::size_t index = tracer->spans().size();
  {
    const Tracer::Scope scope(*tracer, name);
    fn();
  }
  const Tracer::Span& span = tracer->spans()[index];
  return span.end_s - span.start_s;
}

/// Whether a measurement loop should make another call: always until
/// `min_calls` are done, then only while one more call of the last
/// call's length still fits in the budget, so that a run's length and
/// call count do not hinge on where the budget happens to expire.
inline bool another_call(std::chrono::steady_clock::time_point start,
                         std::size_t calls, std::size_t min_calls,
                         double last_call_s, double budget_s) {
  return calls < min_calls || seconds_since(start) + last_call_s <= budget_s;
}

/// Runs `setup` `repeats` times and returns the median wall time, so that
/// one slow repetition does not move the figure. The count is fixed per
/// workload rather than time-based, so that the heap history before the
/// measured calls, and with it the peak RSS, repeats from run to run.
template <class Fn>
double median_setup_s(std::size_t repeats, Fn&& setup) {
  std::vector<double> times;
  for (std::size_t r = 0; r < repeats; ++r) {
    times.push_back(timed(nullptr, "setup", setup));
  }
  return median(std::move(times));
}

/// Peak resident set size of this process so far, in MiB. Read after
/// set-up and the first end-to-end call, before anything whose amount
/// depends on the run length.
inline double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

RunResult run_serve_drift(const RunConfig& config);
RunResult run_catalog(const RunConfig& config, std::size_t objects);

/// The table of serve_drift's first trace in the column layout of
/// bench/serve_trace, as CSV: the configuration-identity test diffs it
/// against that bench at the same seed and request count.
std::string serve_drift_table(std::uint64_t seed);
/// The catalog row in the column layout of bench/catalog_scale, as CSV.
std::string catalog_table(std::uint64_t seed, std::size_t objects);

}  // namespace perfbench
