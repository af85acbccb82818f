#include "core/allocator.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace fap::core {

ResourceDirectedAllocator::ResourceDirectedAllocator(const CostModel& model,
                                                     AllocatorOptions options)
    : model_(model),
      options_(options),
      groups_(model.constraint_groups()),
      caps_(model.upper_bounds()),
      dim_(model.dimension()) {
  FAP_EXPECTS(options_.alpha > 0.0, "step size must be positive");
  FAP_EXPECTS(options_.epsilon > 0.0, "epsilon must be positive");
  FAP_EXPECTS(options_.max_iterations > 0, "need at least one iteration");
  FAP_EXPECTS(options_.dynamic_safety > 0.0 && options_.dynamic_safety <= 1.0,
              "dynamic_safety must be in (0, 1]");
}

double ResourceDirectedAllocator::dynamic_alpha_bound(
    const std::vector<double>& x,
    const std::vector<std::size_t>& active) const {
  return detail::dynamic_alpha_bound(model_.marginal_utilities(x),
                                     model_.second_derivative(x), active,
                                     options_.alpha);
}

void ResourceDirectedAllocator::check_feasible_cached(
    const std::vector<double>& x, double sum_tolerance) const {
  // CostModel::check_feasible against the cached constraint structure:
  // identical checks, messages, and default tolerance, but no
  // constraint_groups()/upper_bounds() round trips. Only the
  // conservation-sum check honors `sum_tolerance` (step_with_drift).
  constexpr double tol = 1e-9;
  FAP_EXPECTS(x.size() == dim_, "allocation has wrong dimension");
  for (const double xi : x) {
    FAP_EXPECTS(xi >= -tol, "allocation must be non-negative");
  }
  if (!caps_.empty()) {
    FAP_EXPECTS(caps_.size() == x.size(),
                "one upper bound per variable when bounds are present");
    for (std::size_t i = 0; i < x.size(); ++i) {
      FAP_EXPECTS(x[i] <= caps_[i] + tol,
                  "allocation exceeds a storage capacity");
    }
  }
  for (const ConstraintGroup& group : groups_) {
    double sum = 0.0;
    for (const std::size_t i : group.indices) {
      FAP_EXPECTS(i < x.size(), "constraint index out of range");
      sum += x[i];
    }
    FAP_EXPECTS(std::fabs(sum - group.total) <= sum_tolerance,
                "allocation violates a resource-conservation constraint");
  }
}

std::vector<std::size_t> ResourceDirectedAllocator::active_set(
    const ConstraintGroup& group, const std::vector<double>& x,
    const std::vector<double>& marginal_u, double alpha) const {
  detail::active_set(group, x, marginal_u, alpha, caps_, dim_,
                     detail::UnitWeights{}, ws_.aset);
  return ws_.aset.active;
}

ResourceDirectedAllocator::StepStats ResourceDirectedAllocator::step_into(
    const std::vector<double>& x, std::vector<double>& x_out,
    double sum_tolerance) const {
  check_feasible_cached(x, sum_tolerance);
  model_.marginal_utilities_into(x, ws_.du);
  if (options_.step_rule == StepRule::kDynamic) {
    model_.second_derivative_into(x, ws_.d2c);
  }

  const std::size_t n_groups = groups_.size();
  if (ws_.group_active.size() != n_groups) {
    ws_.group_active.resize(n_groups);
  }
  ws_.group_alpha.assign(n_groups, 0.0);

  StepStats stats;
  bool all_within_epsilon = true;
  double max_spread = 0.0;

  // First pass: determine the active set and step size per group and check
  // the global termination criterion.
  for (std::size_t g = 0; g < n_groups; ++g) {
    const ConstraintGroup& group = groups_[g];
    // Provisional step size for set-A determination; for the dynamic rule
    // this uses the whole group, then is refined over the active set.
    double alpha = options_.alpha;
    if (options_.step_rule == StepRule::kDynamic) {
      alpha = options_.dynamic_safety *
              detail::dynamic_alpha_bound(ws_.du, ws_.d2c, group.indices,
                                          options_.alpha);
    }
    detail::active_set(group, x, ws_.du, alpha, caps_, dim_,
                       detail::UnitWeights{}, ws_.aset);
    std::vector<std::size_t>& active = ws_.group_active[g];
    active = ws_.aset.active;
    if (options_.step_rule == StepRule::kDynamic) {
      alpha = options_.dynamic_safety *
              detail::dynamic_alpha_bound(ws_.du, ws_.d2c, active,
                                          options_.alpha);
    }
    ws_.group_alpha[g] = alpha;

    const double spread = detail::marginal_spread(ws_.du, active);
    max_spread = std::max(max_spread, spread);
    if (spread >= options_.epsilon) {
      all_within_epsilon = false;
    }
    stats.active_set_size += active.size();
  }

  stats.marginal_spread = max_spread;
  x_out = x;
  if (all_within_epsilon) {
    stats.terminal = true;
    return stats;
  }

  // Second pass: apply Δx_i = α (∂U/∂x_i - avg_A) per group, scaled by the
  // largest θ ∈ (0,1] that keeps the group within [0, cap].
  double alpha_used = 0.0;
  for (std::size_t g = 0; g < n_groups; ++g) {
    const double theta = detail::apply_step(
        ws_.group_active[g], x, ws_.du, ws_.group_alpha[g], caps_,
        detail::UnitWeights{}, ws_.deltas, x_out);
    alpha_used = std::max(alpha_used, theta * ws_.group_alpha[g]);
  }
  stats.alpha_used = alpha_used;
  return stats;
}

ResourceDirectedAllocator::StepOutcome ResourceDirectedAllocator::step(
    const std::vector<double>& x) const {
  StepOutcome outcome;
  const StepStats stats = step_into(x, outcome.x);
  outcome.terminal = stats.terminal;
  outcome.marginal_spread = stats.marginal_spread;
  outcome.active_set_size = stats.active_set_size;
  outcome.alpha_used = stats.alpha_used;
  return outcome;
}

ResourceDirectedAllocator::StepOutcome
ResourceDirectedAllocator::step_with_drift(const std::vector<double>& x,
                                           double sum_tolerance) const {
  FAP_EXPECTS(sum_tolerance >= 0.0, "drift tolerance must be non-negative");
  StepOutcome outcome;
  const StepStats stats = step_into(x, outcome.x, sum_tolerance);
  outcome.terminal = stats.terminal;
  outcome.marginal_spread = stats.marginal_spread;
  outcome.active_set_size = stats.active_set_size;
  outcome.alpha_used = stats.alpha_used;
  return outcome;
}

AllocationResult ResourceDirectedAllocator::run(
    std::vector<double> initial) const {
  check_feasible_cached(initial);
  AllocationResult result;
  result.x = std::move(initial);

  auto record = [&](std::size_t iteration, const StepStats& stats) {
    if (!options_.record_trace) {
      return;
    }
    IterationRecord rec;
    rec.iteration = iteration;
    rec.cost = model_.cost(result.x);
    rec.alpha = stats.terminal ? 0.0 : stats.alpha_used;
    rec.active_set_size = stats.active_set_size;
    rec.marginal_spread = stats.marginal_spread;
    rec.x = result.x;
    result.trace.push_back(std::move(rec));
  };

  // Steady state allocates nothing: each iteration steps result.x into the
  // workspace's ping-pong buffer and swaps (trace recording, when enabled,
  // copies by design).
  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    const StepStats stats = step_into(result.x, ws_.x_next);
    record(iter, stats);
    if (stats.terminal) {
      result.converged = true;
      break;
    }
    std::swap(result.x, ws_.x_next);
    ++result.iterations;
  }
  if (!result.converged && options_.record_trace) {
    // Record the final state reached at the iteration cap.
    StepStats final_state;
    final_state.terminal = true;
    record(result.iterations, final_state);
  }
  result.cost = model_.cost(result.x);
  return result;
}

}  // namespace fap::core
