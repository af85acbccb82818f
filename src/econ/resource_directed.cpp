#include "econ/resource_directed.hpp"

#include "core/active_set.hpp"
#include "core/cost_model.hpp"
#include "util/contracts.hpp"

namespace fap::econ {

PlannerResult resource_directed_plan(const std::vector<ConcaveUtility>& agents,
                                     std::vector<double> initial,
                                     const PlannerOptions& options) {
  FAP_EXPECTS(!agents.empty(), "need at least one agent");
  FAP_EXPECTS(agents.size() == initial.size(),
              "initial allocation size must match agent count");
  FAP_EXPECTS(options.alpha > 0.0, "step size must be positive");
  FAP_EXPECTS(options.epsilon > 0.0, "epsilon must be positive");
  for (const double xi : initial) {
    FAP_EXPECTS(xi >= 0.0, "initial allocation must be non-negative");
  }

  const std::size_t n = agents.size();
  PlannerResult result;
  result.x = std::move(initial);

  auto marginals_at = [&](const std::vector<double>& x) {
    std::vector<double> m(n);
    for (std::size_t i = 0; i < n; ++i) {
      m[i] = agents[i].derivative(x[i]);
    }
    return m;
  };

  auto record = [&](std::size_t iteration, double spread) {
    if (!options.record_trace) {
      return;
    }
    PlannerIteration rec;
    rec.iteration = iteration;
    rec.social_utility = social_utility(agents, result.x);
    rec.marginal_spread = spread;
    rec.x = result.x;
    result.trace.push_back(std::move(rec));
  };

  // Heal's procedure is the §5.2 group step on one group with no caps;
  // core runs it (core/active_set.hpp).
  core::ConstraintGroup group;
  group.indices.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    group.indices[i] = i;
    group.total += result.x[i];
  }
  const std::vector<double> no_caps;
  core::detail::ActiveSetWorkspace ws;
  // Set A at result.x (left in ws.active) and its marginal spread.
  const auto active_spread = [&](const std::vector<double>& marginals) {
    core::detail::active_set(group, result.x, marginals, options.alpha,
                             no_caps, n, core::detail::UnitWeights{}, ws);
    return core::detail::marginal_spread(marginals, ws.active);
  };
  std::vector<double> deltas;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    const std::vector<double> marginals = marginals_at(result.x);
    const double spread = active_spread(marginals);
    record(iter, spread);
    if (spread < options.epsilon) {
      result.converged = true;
      break;
    }
    core::detail::apply_step(ws.active, result.x, marginals, options.alpha,
                             no_caps, core::detail::UnitWeights{}, deltas,
                             result.x);
    ++result.iterations;
  }
  if (!result.converged && options.record_trace) {
    // Record the final state reached at the iteration cap.
    record(result.iterations, active_spread(marginals_at(result.x)));
  }
  result.social_utility = social_utility(agents, result.x);
  return result;
}

}  // namespace fap::econ
