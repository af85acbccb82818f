// Heal's resource-directed planning procedure in its general economic form
// ("Planning Without Prices" [15], Section 2 of the paper).
//
// Agents hold a feasible allocation of one divisible resource. At each
// step every agent reports its marginal utility u_i'(x_i); the plan then
// transfers resource toward agents whose marginal utility is above the
// average and away from those below it:
//
//   Δx_i = α ( u_i'(x_i) - (1/|A|) Σ_{j∈A} u_j'(x_j) ).
//
// Feasibility (Σ x_i constant) holds at every step and social utility
// increases monotonically — the two properties Section 2 highlights as the
// advantages of the resource-directed class. The FAP algorithm of
// Section 5 is this procedure applied to the file-allocation utility; this
// generic version exists to demonstrate (and test) the mechanism on
// arbitrary concave utilities, exactly as the paper claims: "the
// optimization algorithm itself is very general in nature and can be
// applied to any arbitrary resource allocation problem". The code says the
// same: this planner is an adapter over core's group step.
#pragma once

#include <cstddef>
#include <vector>

#include "econ/utility.hpp"

namespace fap::econ {

struct PlannerOptions {
  double alpha = 0.05;
  double epsilon = 1e-6;  ///< stop when active marginals are within ε
  std::size_t max_iterations = 100000;
  bool record_trace = false;
};

struct PlannerIteration {
  std::size_t iteration = 0;
  double social_utility = 0.0;
  double marginal_spread = 0.0;
  std::vector<double> x;
};

struct PlannerResult {
  std::vector<double> x;
  double social_utility = 0.0;
  bool converged = false;
  std::size_t iterations = 0;
  std::vector<PlannerIteration> trace;
};

/// Runs the resource-directed procedure from `initial` (which must be
/// non-negative and sum to the resource total, inferred from the initial
/// allocation itself). Each iteration is core's Section 5.2 group step
/// (core/active_set.hpp) on one uncapped group with unit weights: the
/// active set excludes agents that would be pushed below zero, re-admits
/// excluded agents whose marginal utility beats the active average, and
/// interior overshoots are θ-scaled. A traced run that stops at the
/// iteration cap also records the final state reached.
PlannerResult resource_directed_plan(const std::vector<ConcaveUtility>& agents,
                                     std::vector<double> initial,
                                     const PlannerOptions& options);

}  // namespace fap::econ
