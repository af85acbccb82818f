#include "core/newton_allocator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/active_set.hpp"
#include "util/contracts.hpp"

namespace fap::core {

NewtonAllocator::NewtonAllocator(const CostModel& model,
                                 NewtonAllocatorOptions options)
    : model_(model), options_(options) {
  FAP_EXPECTS(options_.alpha > 0.0, "step size must be positive");
  FAP_EXPECTS(options_.epsilon > 0.0, "epsilon must be positive");
  FAP_EXPECTS(options_.max_iterations > 0, "need at least one iteration");
  FAP_EXPECTS(options_.curvature_floor > 0.0,
              "curvature floor must be positive");
  FAP_EXPECTS(model_.upper_bounds().empty(),
              "NewtonAllocator does not support storage capacities; use "
              "ResourceDirectedAllocator");
}

NewtonAllocator::StepOutcome NewtonAllocator::step(
    const std::vector<double>& x) const {
  model_.check_feasible(x);
  const std::vector<double> du = model_.marginal_utilities(x);
  const std::vector<double> d2c = model_.second_derivative(x);
  const std::vector<ConstraintGroup> groups = model_.constraint_groups();

  // Inverse curvatures with the relative floor applied per group: the
  // weights of the shared §5.2 group step (core/active_set.hpp).
  std::vector<double> inv_h(du.size(), 1.0);
  const detail::VariableWeights weights(inv_h);
  const std::vector<double> no_caps;

  StepOutcome outcome;
  outcome.x = x;
  bool all_within_epsilon = true;
  double max_spread = 0.0;
  detail::ActiveSetWorkspace ws;
  std::vector<std::vector<std::size_t>> group_active(groups.size());

  for (std::size_t g = 0; g < groups.size(); ++g) {
    const ConstraintGroup& group = groups[g];
    double max_h = 0.0;
    for (const std::size_t i : group.indices) {
      max_h = std::max(max_h, std::fabs(d2c[i]));
    }
    const double floor = std::max(options_.curvature_floor * max_h,
                                  std::numeric_limits<double>::min());
    for (const std::size_t i : group.indices) {
      const double h = std::max(std::fabs(d2c[i]), floor);
      inv_h[i] = max_h > 0.0 ? 1.0 / h : 1.0;  // all-zero curvature: revert
                                               // to first-order weights
    }

    detail::active_set(group, x, du, options_.alpha, no_caps, du.size(),
                       weights, ws);
    group_active[g] = ws.active;
    const double spread = detail::marginal_spread(du, group_active[g]);
    max_spread = std::max(max_spread, spread);
    if (spread >= options_.epsilon) {
      all_within_epsilon = false;
    }
    outcome.active_set_size += group_active[g].size();
  }

  outcome.marginal_spread = max_spread;
  if (all_within_epsilon) {
    outcome.terminal = true;
    return outcome;
  }

  std::vector<double> deltas;
  for (const std::vector<std::size_t>& active : group_active) {
    const double theta = detail::apply_step(active, x, du, options_.alpha,
                                            no_caps, weights, deltas,
                                            outcome.x);
    outcome.alpha_used = std::max(outcome.alpha_used, theta * options_.alpha);
  }
  return outcome;
}

AllocationResult NewtonAllocator::run(std::vector<double> initial) const {
  model_.check_feasible(initial);
  AllocationResult result;
  result.x = std::move(initial);

  auto record = [&](std::size_t iteration, const StepOutcome& outcome) {
    if (!options_.record_trace) {
      return;
    }
    IterationRecord rec;
    rec.iteration = iteration;
    rec.cost = model_.cost(result.x);
    rec.alpha = outcome.terminal ? 0.0 : outcome.alpha_used;
    rec.active_set_size = outcome.active_set_size;
    rec.marginal_spread = outcome.marginal_spread;
    rec.x = result.x;
    result.trace.push_back(std::move(rec));
  };

  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    StepOutcome outcome = step(result.x);
    record(iter, outcome);
    if (outcome.terminal) {
      result.converged = true;
      break;
    }
    result.x = std::move(outcome.x);
    ++result.iterations;
  }
  if (!result.converged && options_.record_trace) {
    // Record the final state reached at the iteration cap.
    StepOutcome final_state;
    final_state.terminal = true;
    record(result.iterations, final_state);
  }
  result.cost = model_.cost(result.x);
  return result;
}

}  // namespace fap::core
