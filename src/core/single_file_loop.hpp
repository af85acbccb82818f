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
// Three shortcuts keep the per-iteration cost down without changing a
// bit:
//   * After a step only set-A entries of x move, so only their marginals
//     are re-evaluated.
//   * A node holding no share has a = λ·0 = ±0, where a·T'(a) and
//     a·T''(a) are ±0 and the model's expressions reduce bit for bit to
//     the caller's zero-load tables k·T_i(0) and 2·T'_i(0) (pinned for
//     every delay model by catalog_solver_test). So only support nodes
//     evaluate the delay law.
//   * A start that is already a certified point-mass optimum stops at
//     iteration 0 without building set A. This is the paper's §5.3
//     condition (Theorem 3) for a point mass on s: no empty node's
//     marginal −(C_j + k·T_j(0)) reaches the support's. The loop returns
//     {0 iterations, converged} with x untouched when all of these hold:
//     no caps; x_s == 1 and every other share is ±0; every empty node's
//     ∂U_j < ∂U_s; every ∂U finite and n·M < DBL_MAX, M = max_i |∂U_i|;
//     α·n·u·M ≥ DBL_MIN for the α set A would be built with (u = 2⁻⁵³);
//     and ε > R = 4n²·u·M·(2 + ln n). The cases it leaves to the loop
//     (a split start, caps, a tie for the maximum, a tight ε) run
//     exactly as before.
//
// Why the loop would have stopped there too. Write v_i = ∂U_i. With
// v_s the unique maximum the full loop's first set A always has spread
// v_s − min_A v, so it suffices to show that spread is below ε.
//   (1) s is never pinned (x_s = 1 is off both bounds), so s ∈ A in
//       every round of active_set; an empty node j is pinned exactly when
//       fl(α·fl(v_j − t)) < 0 against the current mean t. Hence a
//       dropped node has v_j < t, a kept one v_j ≥ t − ζ with
//       ζ = 2⁻¹⁰⁷⁴/α ≤ n·u·M (an underflowed product is the only way a
//       below-mean node survives), and a re-admitted node v_j > t.
//   (2) Every mean active_set takes is a left-to-right sum of k ≤ n
//       marginals divided by k, so it lies within η = γ_n·M ≤ 2n·u·M of
//       the exact mean (Higham's recursive-summation bound plus the
//       division, γ_j = ju/(1 − ju); n·M < DBL_MAX rules out overflow).
//   (3) Let a round start from A ∋ s with m = min_A v and σ = v_s − m.
//       Its exact mean is at least m + σ/n. Each re-admission into a set
//       of size k lowers the exact mean by at most η/(k+1), so the drop
//       threshold t is at least m + σ/n − η(1 + ln n). Every node that
//       survives the drop therefore has v ≥ m + σ/n − D with
//       D = η(1 + ln n) + ζ ≤ n·u·M(3 + 2 ln n). With B = n·D:
//         (a) if σ > B, the round's minimum strictly rises;
//         (b) in any case the next σ is at most σ + D.
//       The peel and the fast path are rounds without re-admission.
//   (4) active_set returns either after a round that changed nothing,
//       where (a) forces σ ≤ B, or after its 2n + 2 round limit. The
//       minimum takes at most n values, so σ > B lasts at most n − 1
//       rounds in a row; after that (a) and (b) keep σ ≤ B + D ≤ 2B.
//   (5) The ε test computes fl(σ) ≤ 2B(1 + u) < R, because
//       R − 2B ≥ 2n²·u·M. So fl(σ) < ε: converged, with no step taken.
// A bound of 4n²·u·M alone covers the exits after an unchanged round;
// the (2 + ln n) factor pays for the round limit. At n = 100 and the
// catalog's ε = 1e-4 the check applies to any object with M below ~3e6.
// core_batch_allocator_test pins the shortcut against the serial
// allocator at constructed near-ties on both sides of the bound.
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
