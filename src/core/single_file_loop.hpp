// The paper's §5.2 loop for one single-file problem: one Σ_i x_i = 1
// group over nodes 0..n-1, optional storage caps, the fixed or dynamic
// step rule. This is the one copy of the loop that the Σx=1 callers
// share:
//   * catalog::CatalogSolver::solve_object — one catalog object per call,
//     on per-task scratch, no caps;
//   * core::BatchAllocator::run_all — each queued instance in submission
//     order.
// Each iteration is ResourceDirectedAllocator::run's step on a
// SingleFileModel, with the same expressions in the same order:
// marginals → set A → spread → θ-scaled step (core/active_set.hpp), until
// the spread over A drops below ε or the iteration cap binds. The result
// (x, iterations, converged) is bitwise the serial allocator's, which
// core_batch_allocator_test and catalog_solver_test pin.
//
// Two shortcuts keep the per-iteration cost down without changing a bit:
//   * After a step only set-A entries of x move, so only their marginals
//     are re-evaluated.
//   * A node holding no share has a = λ·0 = ±0, where a·T'(a) and
//     a·T''(a) are ±0 and the model's expressions reduce bit for bit to
//     the caller's zero-load tables k·T_i(0) and 2·T'_i(0) (pinned for
//     every delay model by catalog_solver_test). So only support nodes
//     evaluate the delay law.
#pragma once

#include <cstddef>
#include <vector>

#include "core/active_set.hpp"
#include "core/allocator.hpp"
#include "queueing/delay.hpp"

namespace fap::core::detail {

/// One single-file instance, borrowed for the duration of a call. The
/// caller guarantees μ_i > 0 and, for delay models without a linear
/// extension (rho_max == 1), λ below every node's service capacity: the
/// loop evaluates single-server delay laws without argument checks.
struct SingleFileInstance {
  std::size_t n = 0;
  double rate = 0.0;  ///< λ: node i sees arrival rate λ·x_i
  double k = 0.0;
  const queueing::DelayModel* delay = nullptr;
  const double* access = nullptr;   ///< C_i, length n
  const double* mu = nullptr;       ///< length n
  const double* k_t0 = nullptr;     ///< k·T_i(0), length n
  const double* two_dt0 = nullptr;  ///< 2·T'_i(0), length n
};

/// The zero-load tables of an instance: k_t0[i] = k·T(0, μ_i) and
/// two_dt0[i] = 2·T'(0, μ_i) for i < n, through the checked entry points.
void zero_load_tables(std::size_t n, double k,
                      const queueing::DelayModel& delay, const double* mu,
                      std::vector<double>& k_t0,
                      std::vector<double>& two_dt0);

/// Caller-owned contiguous scratch, reused across calls. Once sized for
/// the largest n, steady-state calls allocate nothing.
struct SingleFileScratch {
  std::vector<double> x;    ///< in: feasible start (length n); out: result
  std::vector<double> du;   ///< marginal utilities at x
  std::vector<double> d2c;  ///< curvatures at x (dynamic step rule only)
  std::vector<double> deltas;  ///< apply_step scratch
  ConstraintGroup group;       ///< {0..n-1}, total 1
  ActiveSetWorkspace aset;
};

struct SingleFileOutcome {
  std::size_t iterations = 0;  ///< steps applied
  bool converged = false;      ///< met ε before the iteration cap
};

/// Runs the §5.2 loop from the start in `scratch.x` and leaves the final
/// allocation there. `caps` is empty (unbounded) or one cap per node.
/// Uses options.alpha, epsilon, max_iterations, step_rule and
/// dynamic_safety; the caller has validated them.
SingleFileOutcome run_single_file_loop(const SingleFileInstance& inst,
                                       const std::vector<double>& caps,
                                       const AllocatorOptions& options,
                                       SingleFileScratch& scratch);

}  // namespace fap::core::detail
