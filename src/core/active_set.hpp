// The Section 5.2 group step — the one implementation every allocator
// that runs Heal's resource-directed procedure shares:
//   * ResourceDirectedAllocator::step_into (unit weights, §5.2);
//   * run_single_file_loop (core/single_file_loop.hpp: unit weights, one
//     Σx=1 group, optional caps, in place on caller scratch), which runs
//     BatchAllocator's queued instances and the catalog's per-object
//     inner solves — running the *same compiled code* as the serial
//     allocator is what keeps both decision-identical (and therefore
//     bit-identical) to it;
//   * NewtonAllocator::step (inverse-curvature weights, §8.2);
//   * econ::resource_directed_plan (unit weights, one group, no caps).
//
// A group step has three parts: set A (active_set), the dynamic-α bound
// of Eq. 5 (dynamic_alpha_bound) and the θ-scaled apply (apply_step).
// The weighting is a compile-time policy: with weights w_i the group
// average is ū = Σ_A w_i ∂U_i / Σ_A w_i and the move is
// Δx_i = α (∂U_i − ū) w_i; UnitWeights instantiates exactly the paper's
// unweighted arithmetic (no multiply by 1.0 anywhere).
//
// The literal steps (i)-(v) transcription that pins active_set decision
// for decision is a test-only oracle in tests/support.
#pragma once

#include <cstddef>
#include <vector>

#include "core/cost_model.hpp"

namespace fap::core::detail {

// A node counts as sitting on a bound below this threshold. Exclusion
// from the active set (Section 5.2 steps (i)-(v)) applies only to
// boundary nodes: an *interior* node whose step would overshoot below
// zero must have the step clipped (θ-scaling in apply_step) rather than
// be frozen at its current allocation — freezing it would make the
// spread-over-A termination criterion fire at a point violating the
// Section 5.3 optimality conditions (∂U/∂x_i = q must hold at every
// x_i > 0). The paper's own Figure 4 run (start (0,0,0,1), α = 0.3)
// exercises exactly this case: the literal rule would freeze node 4 at
// x = 1 on the first iteration.
inline constexpr double kBoundaryTol = 1e-12;

/// The paper's §5.2 weighting: every node counts once.
struct UnitWeights {
  static constexpr double weight(std::size_t /*i*/) { return 1.0; }
  static constexpr double weighted(std::size_t /*i*/, double v) { return v; }
};

/// Per-variable positive weights w_i (NewtonAllocator's 1/h_i), indexed
/// by variable. The vector must outlive the policy object.
class VariableWeights {
 public:
  explicit VariableWeights(const std::vector<double>& w) : w_(&w) {}
  double weight(std::size_t i) const { return (*w_)[i]; }
  double weighted(std::size_t i, double v) const { return v * (*w_)[i]; }

 private:
  const std::vector<double>* w_;
};

/// Reusable scratch for active_set. Sized on first use and refilled in
/// place afterwards, so steady-state calls allocate nothing.
struct ActiveSetWorkspace {
  std::vector<std::size_t> active;     ///< active set under construction
  std::vector<std::size_t> survivors;  ///< drop-pass output
  std::vector<unsigned char> in_active;   ///< membership bitmask by variable
  std::vector<std::size_t> pos_in_group;  ///< variable -> group position
  /// Lazy re-admission heaps: candidate positions into group.indices,
  /// keyed on marginal utility (max-du for boundary gainers, min-du for
  /// boundary losers), ties broken toward the earlier group position —
  /// the reference scan order.
  std::vector<std::size_t> gainer_heap;
  std::vector<std::size_t> loser_heap;
};

/// Set A: computes the paper's active set for one constraint group given
/// the current allocation and marginal utilities, writing the sorted
/// result into `ws.active`. `caps` is the per-variable upper-bound vector
/// (empty = unbounded) and `dim` the variable-index space size (bitmask
/// sizing). Decision-for-decision identical to the literal transcription
/// in tests/support (pinned by core_allocator_test across 200 randomized
/// instances and catalog-shaped point-mass and capped lanes, at every
/// iterate of their trajectories, for unit and seeded positive weights).
/// Instantiated for UnitWeights and VariableWeights.
template <class Weights>
void active_set(const ConstraintGroup& group, const std::vector<double>& x,
                const std::vector<double>& marginal_u, double alpha,
                const std::vector<double>& caps, std::size_t dim,
                const Weights& weights, ActiveSetWorkspace& ws);

/// max − min of the marginal utilities over `active` — the termination
/// criterion's spread.
double marginal_spread(const std::vector<double>& marginal_u,
                       const std::vector<std::size_t>& active);

/// The Theorem-2 step bound (Eq. 5) over the variables `active`:
/// 2 Σ (∂U_i − ū)² / Σ |∂²C_i| (∂U_i − ū)², with the unweighted ū.
/// Returns `fallback` when the denominator vanishes (a locally linear
/// objective, e.g. the delay model's tangent extension, imposes no bound).
double dynamic_alpha_bound(const std::vector<double>& marginal_u,
                           const std::vector<double>& second_derivative,
                           const std::vector<std::size_t>& active,
                           double fallback);

/// θ-scaled apply: Δx_i = α (∂U_i − ū) w_i over `active` (ū in active
/// order), scaled by the largest θ ∈ [0,1] that keeps the group within
/// [0, cap], each result clamped into [0, cap] to absorb rounding dust.
/// Writes only the active entries of `x_out` (which may alias `x`: each
/// entry is read before it is written); `deltas` is scratch. Returns θ.
/// Instantiated for UnitWeights and VariableWeights.
template <class Weights>
double apply_step(const std::vector<std::size_t>& active,
                  const std::vector<double>& x,
                  const std::vector<double>& marginal_u, double alpha,
                  const std::vector<double>& caps, const Weights& weights,
                  std::vector<double>& deltas, std::vector<double>& x_out);

}  // namespace fap::core::detail
