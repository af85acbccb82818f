// Benchmark-side spans for the traced run.
//
// Spans are taken in the benchmark itself, around its calls into the
// library's public API; the library carries no tracing of its own. They
// are kept in memory and written once, when the run ends, so recording a
// span costs two clock reads and a vector append.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since `origin`.
double seconds_since(std::chrono::steady_clock::time_point origin);

class Tracer {
 public:
  static constexpr int kNoParent = -1;

  struct Span {
    std::string name;
    double start_s = 0.0;  ///< seconds since the tracer was created
    double end_s = 0.0;
    int parent = kNoParent;
  };

  /// A span that closes when the scope ends. Scopes nest: a scope opened
  /// while another is open becomes its child.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  explicit Tracer(std::string run_id);

  const std::string& run_id() const noexcept { return run_id_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Total duration of every span named `name`.
  double total_s(const std::string& name) const;

  /// Span duration minus the part of it covered by its direct children
  /// (children of one parent are sequential, so their union is their sum).
  double self_s(std::size_t index) const;

  /// The spans with parent, duration and self time, as a JSON array.
  std::string to_json() const;

 private:
  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = kNoParent;
};

}  // namespace perfbench
