// Shared fixtures for the test suite: deterministic random FAP instances.
#pragma once

#include <cstdint>
#include <vector>

#include "core/multi_file.hpp"
#include "core/ring_model.hpp"
#include "core/single_file.hpp"
#include "net/generators.hpp"
#include "queueing/delay.hpp"
#include "util/rng.hpp"

namespace fap::testing {

/// A random but always-valid single-file problem: random-metric topology,
/// heterogeneous rates and service speeds, λ < min μ.
inline core::SingleFileProblem random_single_file_problem(std::uint64_t seed,
                                                          std::size_t nodes) {
  util::Rng rng(seed);
  const net::Topology topology = net::make_random_metric(nodes, 2, rng);
  core::Workload workload;
  workload.lambda.resize(nodes);
  for (double& rate : workload.lambda) {
    rate = rng.uniform(0.05, 0.5);
  }
  const double total = workload.total();
  core::SingleFileProblem problem = core::make_problem(
      topology, workload, /*mu=*/total * rng.uniform(1.3, 3.0),
      /*k=*/rng.uniform(0.2, 3.0));
  // Heterogeneous service rates, all above λ.
  for (double& mu : problem.mu) {
    mu = total * rng.uniform(1.2, 3.0);
  }
  return problem;
}

/// Random feasible allocation for a model (Dirichlet-ish via exponentials).
inline std::vector<double> random_feasible(const core::CostModel& model,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(model.dimension(), 0.0);
  for (const core::ConstraintGroup& group : model.constraint_groups()) {
    double sum = 0.0;
    std::vector<double> raw(group.indices.size());
    for (double& value : raw) {
      value = rng.exponential(1.0);
      sum += value;
    }
    for (std::size_t k = 0; k < raw.size(); ++k) {
      x[group.indices[k]] = raw[k] / sum * group.total;
    }
  }
  return x;
}

/// Random virtual-ring multicopy problem.
inline core::RingProblem random_ring_problem(std::uint64_t seed,
                                             std::size_t nodes,
                                             double copies) {
  util::Rng rng(seed);
  std::vector<double> link_costs(nodes);
  for (double& cost : link_costs) {
    cost = rng.uniform(0.5, 4.0);
  }
  core::RingProblem problem{net::VirtualRing(link_costs),
                            copies,
                            {},
                            {},
                            1.0,
                            queueing::DelayModel::mm1(/*rho_max=*/0.95),
                            0.0};
  problem.lambda.resize(nodes);
  for (double& rate : problem.lambda) {
    rate = rng.uniform(0.05, 0.4);
  }
  problem.mu.assign(nodes, 0.0);
  double total = 0.0;
  for (const double rate : problem.lambda) {
    total += rate;
  }
  for (double& mu : problem.mu) {
    mu = total * rng.uniform(1.3, 2.5);
  }
  problem.k = rng.uniform(0.3, 2.0);
  problem.delay = queueing::DelayModel::mm1(/*rho_max=*/0.95);
  return problem;
}

/// One delay law of every shape the allocators accept: the single-server
/// disciplines pure and tangent-extended, and M/M/c pure and extended.
inline std::vector<queueing::DelayModel> interesting_models() {
  using queueing::DelayModel;
  return {
      DelayModel::mm1(),          DelayModel::md1(),
      DelayModel::mg1(0.3),       DelayModel::mg1(2.4),
      DelayModel::mm1(0.7),       DelayModel::md1(0.85),
      DelayModel::mg1(1.7, 0.6),  DelayModel::mmc(2),
      DelayModel::mmc(4, 0.8),
  };
}

}  // namespace fap::testing
