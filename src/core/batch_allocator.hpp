// Batched structure-of-arrays allocator kernel.
//
// Every figure and ablation evaluates many *independent* small
// ResourceDirectedAllocator instances — an α sweep, a grid search, a
// table of randomized problems. Run one at a time, each iteration is a
// handful of scalar divides over n ≈ 4–64 nodes: far too little work to
// feed the vector units or amortize per-call overhead. BatchAllocator
// steps K instances in lockstep instead, with every per-node quantity
// laid out [node][lane] (lane = instance) so the delay-law and utility
// arithmetic of one node row vectorizes across the batch dimension.
//
// The dense passes of the lockstep iteration are the plain row loops in
// core/batch_kernels.cpp; -O3 lets the compiler vectorize them across
// lanes.
//
// Bit-identity contract: lanes are independent instances, so no
// cross-lane reduction exists anywhere — each lane executes exactly the
// scalar operation sequence of ResourceDirectedAllocator::run /
// Workspace::step_into (same expressions, same order, same boundary
// logic via the shared core/active_set.hpp group step), and IEEE-754 ops
// are exactly rounded regardless of whether they sit in a vector
// register. The kernel TUs are compiled with -ffp-contract=off so no FMA
// contraction can perturb a rounding. Consequently run_all() returns
// results (x, cost, converged, iterations) bitwise equal to running each
// submission through ResourceDirectedAllocator serially — pinned across
// randomized instances by core_batch_allocator_test.
//
// Lane lifecycle: submissions queue in submit() order; run_all() loads
// the first `width` of them into lanes and iterates. A lane retires when
// its termination criterion fires (converged) or its iteration cap is
// reached, and its column is immediately backfilled from the pending
// queue; when the queue is dry, live columns are compacted left so the
// vector loops stay dense.
//
// Supported models: SingleFileModel (any delay discipline; single-server
// disciplines take the dense derivative pass, M/M/c lanes fall back
// to per-lane scalar evaluation), fixed or dynamic step rule, optional
// storage capacities. Trace recording is not supported (use the serial
// allocator for that).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/active_set.hpp"
#include "core/allocator.hpp"
#include "core/batch_kernels.hpp"
#include "core/single_file.hpp"
#include "queueing/delay.hpp"
#include "util/aligned.hpp"

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
  /// Default lane count: wide enough to give each row loop a long
  /// stride-1 run and amortize per-iteration lane bookkeeping, small
  /// enough that the SoA planes of typical (n <= 64) problems stay
  /// cache-resident.
  static constexpr std::size_t kDefaultWidth = 64;

  explicit BatchAllocator(std::size_t width = kDefaultWidth);

  /// Enqueues one instance; returns its index into run_all()'s result
  /// vector. Copies everything it needs from `model` (the reference need
  /// not outlive the call): checks `start` against the model, then
  /// submits the model's own fields through submit(RawInstance). Throws
  /// PreconditionError on infeasible `start`, invalid options, or options
  /// requesting trace recording.
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
  /// file, feasible start) and queues an instance that run_all() treats
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
    /// Lockstep iterations executed (each steps every live lane once).
    std::size_t lockstep_iterations = 0;
    /// Name of the row-pass set; there is one, so always "scalar".
    const char* kernels = "scalar";
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  /// One queued submission (AoS; transposed into the SoA planes on load).
  struct Instance {
    std::size_t n = 0;
    double alpha = 0.0;
    double epsilon = 0.0;
    double dynamic_safety = 0.0;
    bool dynamic_rule = false;
    std::size_t max_iterations = 0;
    double total_rate = 0.0;
    double k = 0.0;
    queueing::DelayModel delay;
    std::vector<double> access_cost;
    std::vector<double> mu;
    std::vector<double> caps;  ///< empty = unbounded
    std::vector<double> start;
  };

  void load_lane(std::size_t lane, std::size_t instance_id);
  void refresh_lane_summary();
  void compute_derivatives();
  void scalar_lane_step(std::size_t lane);
  double column_cost(std::size_t lane,
                     const util::AlignedVector& plane) const;
  void harvest(std::size_t lane, const util::AlignedVector& plane,
               bool converged, std::vector<BatchRunResult>& results) const;

  std::size_t width_;
  std::vector<Instance> pending_;
  Stats stats_;

  // --- run_all() state. The planes, lane constants and per-iteration
  // outputs the row passes touch live in soa_ (row-major [node][lane],
  // 64-byte-aligned rows, stride = lanes_ rounded up to 8 — see
  // core/batch_kernels.hpp); what follows is the bookkeeping only the
  // driver needs. Padding rows (j >= lane n) hold x = 0, mu = 1,
  // cap = +inf, du = 0 so the dense row loops never need per-element
  // guards (see the padding invariants in batch_allocator.cpp).
  detail::BatchSoA soa_;
  std::size_t lanes_ = 0;       ///< columns occupied at full width
  std::size_t live_ = 0;        ///< columns currently occupied (prefix)
  std::size_t node_cap_ = 0;    ///< plane row count
  std::vector<std::size_t> lane_inst_, lane_n_, lane_maxit_, lane_iter_;
  std::vector<double> lane_eps_;
  std::vector<unsigned char> lane_single_;
  std::vector<queueing::DelayModel> lane_delay_;
  std::vector<unsigned char> term_, scalar_lane_;
  // Lane summary, refreshed when lane membership changes (n_min / n_max
  // live in soa_ where the row passes read them).
  bool all_single_ = true;
  bool any_dyn_ = false;
  // Scalar-tail scratch (boundary lanes).
  std::vector<double> gx_, gdu_, gd2c_, gcaps_, deltas_;
  detail::ActiveSetWorkspace aset_;
  /// The identity group {0..n-1} for each lane size n, indexed by n
  /// (sized to node_cap_ + 1 by run_all, each entry built on first use).
  std::vector<ConstraintGroup> group_by_n_;
};

}  // namespace fap::core
