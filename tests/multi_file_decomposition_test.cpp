// The classical decomposition result the paper cites from Morgan & Levin
// [28] / Suri [33] (Section 3): when files do not interact, "the multiple
// file cost minimization problem was shown to decompose into individual
// file cost minimization problems". In our model files interact ONLY
// through the shared queues (the delay term); with k = 0 the coupling
// vanishes and the joint optimum must equal the per-file optima — a sharp
// cross-check between MultiFileModel and SingleFileModel. With k > 0 the
// coupling is real and the decomposition must fail.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "baselines/projected_gradient.hpp"
#include "core/allocator.hpp"
#include "core/multi_file.hpp"
#include "core/single_file.hpp"
#include "net/generators.hpp"
#include "net/shortest_paths.hpp"
#include "util/rng.hpp"

namespace {

namespace core = fap::core;
namespace net = fap::net;

struct Scenario {
  core::MultiFileProblem joint;
  std::vector<core::SingleFileProblem> separate;
};

Scenario make_setup(double k, std::uint64_t seed) {
  fap::util::Rng rng(seed);
  const net::Topology topology = net::make_random_metric(5, 2, rng);
  const net::CostMatrix comm = net::all_pairs_shortest_paths(topology);

  Scenario setup{core::MultiFileProblem{comm, {}, {}, k,
                                     fap::queueing::DelayModel()},
              {}};
  double total = 0.0;
  for (int f = 0; f < 2; ++f) {
    std::vector<double> lambda(5, 0.0);
    for (double& rate : lambda) {
      rate = rng.uniform(0.02, 0.12);
      total += rate;
    }
    setup.joint.per_file_lambda.push_back(lambda);
  }
  const double mu = total * 1.6;
  setup.joint.mu.assign(5, mu);
  for (int f = 0; f < 2; ++f) {
    core::SingleFileProblem problem;
    problem.comm = comm;
    problem.lambda = setup.joint.per_file_lambda[static_cast<std::size_t>(f)];
    problem.mu.assign(5, mu);
    problem.k = k;
    setup.separate.push_back(std::move(problem));
  }
  return setup;
}

TEST(Decomposition, WithoutDelayCouplingJointEqualsPerFileOptima) {
  for (const std::uint64_t seed : {1u, 4u, 9u}) {
    const Scenario setup = make_setup(/*k=*/0.0, seed);
    const core::MultiFileModel joint(setup.joint);
    const auto joint_opt = fap::baselines::projected_gradient_solve(
        joint, core::uniform_allocation(joint));

    double separate_total = 0.0;
    for (const core::SingleFileProblem& problem : setup.separate) {
      const core::SingleFileModel single(problem);
      const auto single_opt = fap::baselines::projected_gradient_solve(
          single, core::uniform_allocation(single));
      separate_total += single_opt.cost;
    }
    EXPECT_NEAR(joint_opt.cost, separate_total,
                1e-5 * (1.0 + std::fabs(separate_total)))
        << "seed " << seed;
  }
}

TEST(Decomposition, DelayCouplingBreaksTheDecomposition) {
  // With queueing (k > 0), solving files independently ignores contention;
  // stitching the per-file optima together must cost at least as much as
  // the joint optimum — and strictly more when both files want the same
  // node.
  const Scenario setup = make_setup(/*k=*/4.0, 7);
  const core::MultiFileModel joint(setup.joint);
  const auto joint_opt = fap::baselines::projected_gradient_solve(
      joint, core::uniform_allocation(joint));

  std::vector<double> stitched(joint.dimension(), 0.0);
  for (std::size_t f = 0; f < 2; ++f) {
    const core::SingleFileModel single(setup.separate[f]);
    const auto single_opt = fap::baselines::projected_gradient_solve(
        single, core::uniform_allocation(single));
    for (std::size_t i = 0; i < 5; ++i) {
      stitched[joint.index(f, i)] = single_opt.x[i];
    }
  }
  const double stitched_cost = joint.cost(stitched);
  EXPECT_GE(stitched_cost, joint_opt.cost - 1e-9);
  EXPECT_GT(stitched_cost, joint_opt.cost + 1e-4);  // strictly suboptimal
}

TEST(Decomposition, DecentralizedJointRunMatchesDecomposedOptimaAtKZero) {
  const Scenario setup = make_setup(/*k=*/0.0, 13);
  const core::MultiFileModel joint(setup.joint);
  core::AllocatorOptions options;
  options.alpha = 0.1;
  options.epsilon = 1e-7;
  options.max_iterations = 300000;
  const core::ResourceDirectedAllocator allocator(joint, options);
  const auto result = allocator.run(core::uniform_allocation(joint));
  ASSERT_TRUE(result.converged);
  double separate_total = 0.0;
  for (const core::SingleFileProblem& problem : setup.separate) {
    const core::SingleFileModel single(problem);
    const auto opt = fap::baselines::projected_gradient_solve(
        single, core::uniform_allocation(single));
    separate_total += opt.cost;
  }
  EXPECT_NEAR(result.cost, separate_total, 1e-4 * (1.0 + separate_total));
}

}  // namespace
