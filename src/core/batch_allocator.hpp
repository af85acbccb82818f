// Queue-and-run front end for many independent single-file problems.
//
// Every figure and ablation evaluates many independent small
// ResourceDirectedAllocator instances — an α sweep, a grid search, a
// table of randomized problems. BatchAllocator takes them as a queue:
// submit() validates and copies each instance, and run_all() runs the
// queue in submission order, one instance at a time, through the shared
// §5.2 loop (core/single_file_loop.hpp) on one reused set of contiguous
// scratch — the same loop the catalog's per-object inner solves run.
//
// Bit-identity contract: every instance executes exactly the scalar
// operation sequence of ResourceDirectedAllocator::run (same
// expressions, same order, same shared set-A and θ-apply code), so
// run_all() returns results (x, cost, converged, iterations) bitwise
// equal to running each submission through the serial allocator —
// pinned across randomized instances by core_batch_allocator_test.
//
// Supported models: SingleFileModel (any delay discipline), fixed or
// dynamic step rule, optional storage capacities. Trace recording is not
// supported (use the serial allocator for that).
//
// The width argument, width() and Stats::kernels stay because the
// perfbench catalog replay constructs its queues with a width and
// records the kernel name; the run itself depends on neither.
#pragma once

#include <cstddef>
#include <vector>

#include "core/allocator.hpp"
#include "core/single_file.hpp"
#include "queueing/delay.hpp"

namespace fap::core {

/// Result of one batched instance: AllocationResult minus the trace.
struct BatchRunResult {
  std::vector<double> x;
  double cost = 0.0;
  bool converged = false;
  std::size_t iterations = 0;
};

class BatchAllocator {
 public:
  static constexpr std::size_t kDefaultWidth = 64;

  /// `width` (>= 1) is the nominal batch size reported by width(); it
  /// does not change what run_all() computes.
  explicit BatchAllocator(std::size_t width = kDefaultWidth);

  /// Enqueues one instance; returns its index into run_all()'s result
  /// vector. Copies everything it needs from `model` (the reference need
  /// not outlive the call): checks `start` against the model, then
  /// submits the model's own fields through submit(RawInstance). Throws
  /// PreconditionError on infeasible `start` (including a negative share
  /// inside the feasibility tolerance, on which the serial run() throws
  /// too), invalid options, or options requesting trace recording.
  std::size_t submit(const SingleFileModel& model,
                     const AllocatorOptions& options,
                     std::vector<double> start);

  /// A submission without the SingleFileModel wrapper: exactly the fields
  /// run_all() consumes, by pointer into caller-owned storage (borrowed
  /// only for the duration of submit(), which copies). For callers that
  /// already hold an assembled access-cost vector per instance — a
  /// replay of a catalog round submits ~1e5 of them — constructing a
  /// model object (comm matrix + λ vector + access-cost aggregation) per
  /// instance would dominate the run. `caps` may be null (unbounded).
  struct RawInstance {
    std::size_t n = 0;
    double total_rate = 0.0;         ///< λ (arrival at node i is λ·x_i)
    double k = 0.0;
    queueing::DelayModel delay;
    const double* access_cost = nullptr;  ///< C_i, length n
    const double* mu = nullptr;           ///< length n
    const double* caps = nullptr;         ///< length n, null = unbounded
    const double* start = nullptr;        ///< feasible start, length n
  };

  /// Raw-field twin of submit(model, ...): applies the same validations
  /// SingleFileModel's constructor and check_feasible() would (positive
  /// rates, stability under pure delay models, capacity admits a whole
  /// file, feasible start with no negative share) and queues an instance that run_all() treats
  /// identically — submitting the model's own access_costs()/μ/caps here
  /// yields bitwise the same results.
  std::size_t submit(const RawInstance& raw, const AllocatorOptions& options);

  /// Runs every pending submission to completion and returns their
  /// results in submission order. Clears the queue; the allocator can be
  /// reused for a new round of submissions afterwards.
  std::vector<BatchRunResult> run_all();

  std::size_t width() const noexcept { return width_; }
  std::size_t pending() const noexcept { return pending_.size(); }

  /// Counters of the last run_all() call.
  struct Stats {
    std::size_t instances = 0;
    /// The longest instance, in loop passes: its steps, plus 1 for a
    /// converged instance's terminating check. For a queue of at most
    /// `width` instances this is the iteration count of a lockstep run
    /// that steps every unfinished instance once per pass.
    std::size_t lockstep_iterations = 0;
    /// Name of the inner-loop implementation; there is one, so always
    /// "scalar".
    const char* kernels = "scalar";
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  /// One queued submission.
  struct Instance {
    std::size_t n = 0;
    AllocatorOptions options;
    double total_rate = 0.0;
    double k = 0.0;
    queueing::DelayModel delay;
    std::vector<double> access_cost;
    std::vector<double> mu;
    std::vector<double> caps;  ///< empty = unbounded
    std::vector<double> start;
  };

  std::size_t width_;
  std::vector<Instance> pending_;
  Stats stats_;
};

}  // namespace fap::core
