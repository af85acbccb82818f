// Tests for the Section 5.2 algorithm: the four formally proven properties
// (optimality at convergence, feasibility, monotonicity, convergence) plus
// the reproduction of the paper's iteration counts, as unit and
// parameterized property tests.
#include "core/allocator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <tuple>

#include "baselines/projected_gradient.hpp"
#include "catalog/catalog_solver.hpp"
#include "catalog/catalog_spec.hpp"
#include "core/active_set.hpp"
#include "core/single_file.hpp"
#include "support/active_set_reference.hpp"
#include "test_helpers.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace {

namespace core = fap::core;
using fap::util::PreconditionError;

core::SingleFileModel paper_model() {
  return core::SingleFileModel(core::make_paper_ring_problem());
}

core::AllocatorOptions paper_options(double alpha) {
  core::AllocatorOptions options;
  options.alpha = alpha;
  options.epsilon = 1e-3;
  options.record_trace = true;
  return options;
}

// --- Reproduction of the paper's Figure 3 iteration counts -------------

struct Figure3Case {
  double alpha;
  std::size_t paper_iterations;
};

class Figure3Test : public ::testing::TestWithParam<Figure3Case> {};

TEST_P(Figure3Test, IterationCountMatchesPaperWithinTolerance) {
  const Figure3Case c = GetParam();
  const core::SingleFileModel model = paper_model();
  const core::ResourceDirectedAllocator allocator(model,
                                                  paper_options(c.alpha));
  const core::AllocationResult result = allocator.run({0.8, 0.1, 0.1, 0.0});
  ASSERT_TRUE(result.converged);
  // Paper: 4 / 10 / 20 / 51 iterations. Allow ±2 for the ε bookkeeping
  // difference between "iterations plotted" and "reallocation steps".
  EXPECT_NEAR(static_cast<double>(result.iterations),
              static_cast<double>(c.paper_iterations), 2.0)
      << "alpha=" << c.alpha;
  for (const double xi : result.x) {
    EXPECT_NEAR(xi, 0.25, 2e-3);
  }
  EXPECT_NEAR(result.cost, 1.8, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(PaperAlphas, Figure3Test,
                         ::testing::Values(Figure3Case{0.67, 4},
                                           Figure3Case{0.30, 10},
                                           Figure3Case{0.19, 20},
                                           Figure3Case{0.08, 51}),
                         [](const auto& info) {
                           return "alpha_" +
                                  std::to_string(static_cast<int>(
                                      info.param.alpha * 100));
                         });

// --- Theorem 1: feasibility at every iteration ---------------------------

class AllocatorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AllocatorPropertyTest, FeasibilityMaintainedAtEveryIteration) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const core::SingleFileModel model(
      fap::testing::random_single_file_problem(seed, 4 + seed % 8));
  core::AllocatorOptions options = paper_options(0.2);
  options.max_iterations = 400;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult result =
      allocator.run(fap::testing::random_feasible(model, seed * 7 + 1));
  ASSERT_FALSE(result.trace.empty());
  for (const core::IterationRecord& rec : result.trace) {
    EXPECT_NEAR(fap::util::sum(rec.x), 1.0, 1e-9)
        << "iteration " << rec.iteration;
    for (const double xi : rec.x) {
      EXPECT_GE(xi, 0.0) << "iteration " << rec.iteration;
    }
  }
}

// --- Theorem 2: strict monotonicity -------------------------------------

TEST_P(AllocatorPropertyTest, CostStrictlyDecreasesUntilConvergence) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const core::SingleFileModel model(
      fap::testing::random_single_file_problem(seed, 4 + seed % 8));
  // Moderate α keeps the second-order argument valid on these instances.
  core::AllocatorOptions options = paper_options(0.05);
  options.max_iterations = 3000;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult result =
      allocator.run(fap::testing::random_feasible(model, seed * 13 + 5));
  for (std::size_t t = 1; t < result.trace.size(); ++t) {
    EXPECT_LE(result.trace[t].cost, result.trace[t - 1].cost + 1e-12)
        << "iteration " << t << " seed " << seed;
  }
}

TEST(Allocator, Theorem2AlphaBoundGuaranteesMonotonicity) {
  const core::SingleFileModel model = paper_model();
  // Even at 100x the appendix bound (still tiny), every step must improve.
  core::AllocatorOptions options =
      paper_options(100.0 * model.theorem2_alpha_bound(1e-3));
  options.max_iterations = 200;  // far from convergence at this α — fine
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult result = allocator.run({0.8, 0.1, 0.1, 0.0});
  for (std::size_t t = 1; t < result.trace.size(); ++t) {
    EXPECT_LT(result.trace[t].cost, result.trace[t - 1].cost);
  }
}

// --- Optimality at convergence (Section 5.3 conditions) ------------------

TEST_P(AllocatorPropertyTest, ConvergesToProjectedGradientOptimum) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const core::SingleFileModel model(
      fap::testing::random_single_file_problem(seed, 4 + seed % 8));
  core::AllocatorOptions options;
  options.alpha = 0.1;
  options.epsilon = 1e-6;
  options.max_iterations = 200000;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult decentralized =
      allocator.run(fap::testing::random_feasible(model, seed + 11));
  ASSERT_TRUE(decentralized.converged) << "seed " << seed;

  const fap::baselines::ProjectedGradientResult centralized =
      fap::baselines::projected_gradient_solve(
          model, core::uniform_allocation(model));
  EXPECT_NEAR(decentralized.cost, centralized.cost,
              1e-5 * (1.0 + std::fabs(centralized.cost)))
      << "seed " << seed;
}

TEST_P(AllocatorPropertyTest, KktConditionsHoldAtConvergence) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const core::SingleFileModel model(
      fap::testing::random_single_file_problem(seed, 4 + seed % 8));
  core::AllocatorOptions options;
  options.alpha = 0.1;
  options.epsilon = 1e-7;
  options.max_iterations = 500000;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult result =
      allocator.run(fap::testing::random_feasible(model, seed + 17));
  ASSERT_TRUE(result.converged);
  // Section 5.3: ∂U/∂x_i = q for x_i > 0 and ∂U/∂x_i <= q for x_i = 0.
  const std::vector<double> du = model.marginal_utilities(result.x);
  double q = 0.0;
  double weight = 0.0;
  for (std::size_t i = 0; i < result.x.size(); ++i) {
    if (result.x[i] > 1e-6) {
      q += du[i];
      weight += 1.0;
    }
  }
  ASSERT_GT(weight, 0.0);
  q /= weight;
  for (std::size_t i = 0; i < result.x.size(); ++i) {
    if (result.x[i] > 1e-6) {
      EXPECT_NEAR(du[i], q, 1e-4 * (1.0 + std::fabs(q))) << "i=" << i;
    } else {
      EXPECT_LE(du[i], q + 1e-4 * (1.0 + std::fabs(q))) << "i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomProblems, AllocatorPropertyTest,
                         ::testing::Range(1, 11));

// --- Initial allocation does not affect the final optimum ---------------

TEST(Allocator, FinalAllocationIndependentOfStartingPoint) {
  const core::SingleFileModel model(
      fap::testing::random_single_file_problem(99, 6));
  core::AllocatorOptions options;
  options.alpha = 0.1;
  options.epsilon = 1e-7;
  options.max_iterations = 500000;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult a =
      allocator.run(fap::testing::random_feasible(model, 1));
  const core::AllocationResult b =
      allocator.run(fap::testing::random_feasible(model, 2));
  const core::AllocationResult c = allocator.run({1, 0, 0, 0, 0, 0});
  ASSERT_TRUE(a.converged && b.converged && c.converged);
  EXPECT_NEAR(a.cost, b.cost, 1e-6);
  EXPECT_NEAR(a.cost, c.cost, 1e-6);
}

// --- Boundary handling ----------------------------------------------------

TEST(Allocator, Figure4StartDoesNotFreezeTheLoadedNode) {
  // Start with the whole file at node 4 and a step large enough that the
  // literal set-A rule would exclude (and freeze) node 4 immediately.
  const core::SingleFileModel model = paper_model();
  const core::ResourceDirectedAllocator allocator(model, paper_options(0.3));
  const core::AllocationResult result = allocator.run({0.0, 0.0, 0.0, 1.0});
  ASSERT_TRUE(result.converged);
  for (const double xi : result.x) {
    EXPECT_NEAR(xi, 0.25, 2e-3);
  }
}

TEST(Allocator, LargeAlphaStillReachesTheOptimum) {
  const core::SingleFileModel model = paper_model();
  const core::ResourceDirectedAllocator allocator(model, paper_options(0.67));
  const core::AllocationResult result = allocator.run({0.8, 0.1, 0.1, 0.0});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.cost, 1.8, 1e-4);
}

TEST(Allocator, NodesAtZeroWithLowMarginalUtilityStayAtZero) {
  // Make node 3 very expensive to reach so its optimal share is zero.
  fap::core::SingleFileProblem problem = core::make_paper_ring_problem();
  for (std::size_t j = 0; j < 4; ++j) {
    if (j != 3) {
      problem.comm.set_cost(j, 3, 50.0);
    }
  }
  const core::SingleFileModel model(std::move(problem));
  core::AllocatorOptions options = paper_options(0.1);
  options.epsilon = 1e-6;
  options.max_iterations = 100000;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult result =
      allocator.run({0.34, 0.33, 0.33, 0.0});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.x[3], 0.0, 1e-9);
  EXPECT_NEAR(fap::util::sum(result.x), 1.0, 1e-9);
}

// --- Step rules -----------------------------------------------------------

TEST(Allocator, DynamicStepRuleConvergesFastOnThePaperRing) {
  const core::SingleFileModel model = paper_model();
  core::AllocatorOptions options = paper_options(0.1);
  options.step_rule = core::StepRule::kDynamic;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult result = allocator.run({0.8, 0.1, 0.1, 0.0});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.cost, 1.8, 1e-4);
  // Should be competitive with the best fixed α the paper found (4 iters).
  EXPECT_LE(result.iterations, 25u);
}

TEST(Allocator, DynamicAlphaBoundIsPositiveAwayFromOptimum) {
  const core::SingleFileModel model = paper_model();
  const core::ResourceDirectedAllocator allocator(model, paper_options(0.1));
  std::vector<std::size_t> all(model.dimension());
  std::iota(all.begin(), all.end(), std::size_t{0});
  EXPECT_GT(allocator.dynamic_alpha_bound({0.8, 0.1, 0.1, 0.0}, all), 0.0);
}

// --- Mechanics ------------------------------------------------------------

TEST(Allocator, TerminatesImmediatelyAtTheOptimum) {
  const core::SingleFileModel model = paper_model();
  const core::ResourceDirectedAllocator allocator(model, paper_options(0.3));
  const core::AllocationResult result =
      allocator.run({0.25, 0.25, 0.25, 0.25});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
}

TEST(Allocator, StepOutcomeReportsSpreadAndActiveSet) {
  const core::SingleFileModel model = paper_model();
  const core::ResourceDirectedAllocator allocator(model, paper_options(0.3));
  const auto outcome = allocator.step({0.8, 0.1, 0.1, 0.0});
  EXPECT_FALSE(outcome.terminal);
  EXPECT_GT(outcome.marginal_spread, 0.0);
  EXPECT_EQ(outcome.active_set_size, 4u);
  EXPECT_GT(outcome.alpha_used, 0.0);
  EXPECT_NEAR(fap::util::sum(outcome.x), 1.0, 1e-12);
}

TEST(Allocator, RespectsIterationCap) {
  const core::SingleFileModel model = paper_model();
  core::AllocatorOptions options = paper_options(1e-4);  // extremely slow
  options.max_iterations = 5;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult result = allocator.run({0.8, 0.1, 0.1, 0.0});
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 5u);
  // Even when stopped early the intermediate allocation is feasible and
  // strictly better than the start — the property Section 5.3 highlights.
  EXPECT_NEAR(fap::util::sum(result.x), 1.0, 1e-9);
  EXPECT_LT(result.cost, model.cost({0.8, 0.1, 0.1, 0.0}));
}

TEST(Allocator, TraceDisabledByDefault) {
  const core::SingleFileModel model = paper_model();
  core::AllocatorOptions options;
  options.alpha = 0.3;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult result = allocator.run({0.8, 0.1, 0.1, 0.0});
  EXPECT_TRUE(result.trace.empty());
  EXPECT_TRUE(result.converged);
}

TEST(Allocator, RejectsInvalidOptionsAndInputs) {
  const core::SingleFileModel model = paper_model();
  core::AllocatorOptions bad;
  bad.alpha = 0.0;
  EXPECT_THROW(core::ResourceDirectedAllocator(model, bad),
               PreconditionError);
  bad = core::AllocatorOptions{};
  bad.epsilon = 0.0;
  EXPECT_THROW(core::ResourceDirectedAllocator(model, bad),
               PreconditionError);
  const core::ResourceDirectedAllocator allocator(model,
                                                  core::AllocatorOptions{});
  EXPECT_THROW(allocator.run({0.5, 0.5, 0.5, 0.5}), PreconditionError);
  EXPECT_THROW(allocator.run({1.0, 0.0, 0.0}), PreconditionError);
}

TEST(Allocator, ActiveSetExcludesOnlyBoundaryNodes) {
  const core::SingleFileModel model = paper_model();
  const core::ResourceDirectedAllocator allocator(model, paper_options(0.3));
  const core::ConstraintGroup group = model.constraint_groups().front();
  // At (0,0,0,1) the three empty nodes all have above-average marginal
  // utility; all four nodes stay active (node 3 is interior).
  const std::vector<double> x{0.0, 0.0, 0.0, 1.0};
  const std::vector<double> du = model.marginal_utilities(x);
  const auto active = allocator.active_set(group, x, du, 0.3);
  EXPECT_EQ(active.size(), 4u);
  // Flip the sign structure: an empty node with *below*-average marginal
  // utility must be excluded.
  const std::vector<double> du_low{-1.0, -1.0, -1.0, -10.0};
  const std::vector<double> x_zero{0.4, 0.3, 0.3, 0.0};
  const auto active2 = allocator.active_set(group, x_zero, du_low, 0.3);
  EXPECT_EQ(active2.size(), 3u);
  EXPECT_TRUE(std::find(active2.begin(), active2.end(), 3u) == active2.end());
}

// --- Fast active set ≡ reference transcription ---------------------------
//
// The O(n log n) incremental active-set procedure claims *decision*
// equivalence with the literal Section 5.2 transcription
// (fap::testing::active_set_reference), not merely agreement in the
// limit. These parameterized tests pin that claim across randomized
// instances: the two procedures must return the same index set at the
// starting allocation and at every iterate of a recorded run, at the
// provisional α the run's step used there — for unit weights (the §5.2
// rule) and for seeded positive weights (the NewtonAllocator rule).

struct EquivalenceInstance {
  core::SingleFileModel model;
  std::vector<double> start;
  double alpha = 0.3;
};

// Seeds cycle through three shapes: unconstrained with a random interior
// start, capacity-constrained with a water-filled start (some variables
// exactly at their cap — the ceiling-pinned boundary case), and
// boundary-pinned starts with all mass on two nodes (the rest exactly 0).
EquivalenceInstance equivalence_instance(std::uint64_t seed) {
  const std::size_t nodes = 3 + seed % 14;
  core::SingleFileProblem problem =
      fap::testing::random_single_file_problem(seed, nodes);
  fap::util::Rng rng(seed * 7919 + 1);
  const std::uint64_t variant = seed % 3;
  if (variant == 1) {
    problem.storage_capacity.resize(nodes);
    double total = 0.0;
    for (double& cap : problem.storage_capacity) {
      cap = rng.uniform(0.15, 0.9);
      total += cap;
    }
    if (total < 1.1) {
      for (double& cap : problem.storage_capacity) {
        cap *= 1.1 / total;
      }
    }
  }
  core::SingleFileModel model(std::move(problem));
  std::vector<double> start;
  if (variant == 1) {
    start = core::uniform_allocation(model);
  } else if (variant == 2) {
    start.assign(nodes, 0.0);
    const std::size_t a = seed % nodes;
    const std::size_t b = (seed / 3 + 1) % nodes;
    if (a == b) {
      start[a] = 1.0;
    } else {
      start[a] = 0.8;
      start[b] = 0.2;
    }
  } else {
    start = fap::testing::random_feasible(model, seed + 1000);
  }
  return {std::move(model), std::move(start), rng.uniform(0.05, 1.0)};
}

// A recorded run of the fast allocator from the instance's start; a third
// of the seeds use the dynamic step rule, which feeds the active set back
// into the α computation, so a divergence would compound.
core::AllocatorOptions trajectory_options(const EquivalenceInstance& inst,
                                          std::uint64_t seed) {
  core::AllocatorOptions options;
  options.alpha = inst.alpha;
  options.epsilon = 1e-4;
  options.max_iterations = 300;
  options.record_trace = true;
  if (seed % 3 == 0) {
    options.step_rule = core::StepRule::kDynamic;
  }
  return options;
}

// The provisional α step_into passes to set A for `group` at x.
double provisional_alpha(const core::ResourceDirectedAllocator& allocator,
                         const std::vector<double>& x,
                         const core::ConstraintGroup& group) {
  const core::AllocatorOptions& options = allocator.options();
  if (options.step_rule != core::StepRule::kDynamic) {
    return options.alpha;
  }
  return options.dynamic_safety *
         allocator.dynamic_alpha_bound(x, group.indices);
}

class ActiveSetEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ActiveSetEquivalenceTest, FastMatchesReferenceAtStart) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const EquivalenceInstance inst = equivalence_instance(seed);
  core::AllocatorOptions options;
  options.alpha = inst.alpha;
  const core::ResourceDirectedAllocator allocator(inst.model, options);
  const std::vector<double> du = inst.model.marginal_utilities(inst.start);
  for (const core::ConstraintGroup& group : inst.model.constraint_groups()) {
    EXPECT_EQ(allocator.active_set(group, inst.start, du, inst.alpha),
              fap::testing::active_set_reference(group, inst.start, du,
                                                 inst.alpha,
                                                 inst.model.upper_bounds()))
        << "seed=" << seed;
  }
}

// Per-iterate decision check: at every x_t of the recorded run, the fast
// set equals the reference set at the provisional α the step used, and
// the trace's active-set size is the reference's.
TEST_P(ActiveSetEquivalenceTest, RunTrajectoriesAreBitIdentical) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const EquivalenceInstance inst = equivalence_instance(seed);
  const core::ResourceDirectedAllocator allocator(
      inst.model, trajectory_options(inst, seed));
  const core::AllocationResult result = allocator.run(inst.start);
  const std::vector<double> caps = inst.model.upper_bounds();
  ASSERT_FALSE(result.trace.empty());
  for (std::size_t t = 0; t < result.trace.size(); ++t) {
    const std::vector<double>& x = result.trace[t].x;
    const std::vector<double> du = inst.model.marginal_utilities(x);
    std::size_t reference_size = 0;
    for (const core::ConstraintGroup& group :
         inst.model.constraint_groups()) {
      const double alpha = provisional_alpha(allocator, x, group);
      const std::vector<std::size_t> reference =
          fap::testing::active_set_reference(group, x, du, alpha, caps);
      EXPECT_EQ(allocator.active_set(group, x, du, alpha), reference)
          << "seed=" << seed << " it=" << t;
      reference_size += reference.size();
    }
    // The state recorded at the iteration cap is not stepped from.
    if (result.converged || t + 1 < result.trace.size()) {
      EXPECT_EQ(result.trace[t].active_set_size, reference_size)
          << "seed=" << seed << " it=" << t;
    }
  }
}

// Seeded positive per-variable weights w_i ∈ [0.05, 20], spanning the
// dynamic range of Newton's 1/h_i.
std::vector<double> seeded_weights(std::size_t n, std::uint64_t seed) {
  fap::util::Rng rng(seed * 104729 + 7);
  std::vector<double> w(n);
  for (double& wi : w) {
    wi = std::exp(rng.uniform(std::log(0.05), std::log(20.0)));
  }
  return w;
}

// The same decision check under seeded weights.
TEST_P(ActiveSetEquivalenceTest, WeightedFastMatchesReferenceAlongRun) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const EquivalenceInstance inst = equivalence_instance(seed);
  const core::ResourceDirectedAllocator allocator(
      inst.model, trajectory_options(inst, seed));
  const core::AllocationResult result = allocator.run(inst.start);
  const std::vector<double> caps = inst.model.upper_bounds();
  const std::vector<double> w = seeded_weights(inst.model.dimension(), seed);
  const core::detail::VariableWeights weights(w);
  core::detail::ActiveSetWorkspace ws;
  for (std::size_t t = 0; t < result.trace.size(); ++t) {
    const std::vector<double>& x = result.trace[t].x;
    const std::vector<double> du = inst.model.marginal_utilities(x);
    for (const core::ConstraintGroup& group :
         inst.model.constraint_groups()) {
      const double alpha = provisional_alpha(allocator, x, group);
      core::detail::active_set(group, x, du, alpha, caps, x.size(), weights,
                               ws);
      EXPECT_EQ(ws.active, fap::testing::active_set_reference(
                               group, x, du, alpha, caps, w))
          << "seed=" << seed << " it=" << t;
    }
  }
}

// 200 randomized instances (the TEST_Ps above share them), covering
// unconstrained, capacity-constrained, and boundary-pinned shapes.
INSTANTIATE_TEST_SUITE_P(RandomInstances, ActiveSetEquivalenceTest,
                         ::testing::Range(1, 201));

TEST(Allocator, StepMatchesBetweenFastAndReferencePaths) {
  // One explicit capacity-pinned corner: a variable exactly at its cap
  // with above-average marginal utility must be excluded identically by
  // both procedures, and the step must move exactly that set.
  core::SingleFileProblem problem =
      fap::testing::random_single_file_problem(42, 6);
  problem.storage_capacity = {0.3, 0.3, 0.3, 0.3, 0.3, 0.3};
  const core::SingleFileModel model(std::move(problem));
  core::AllocatorOptions options;
  options.alpha = 0.5;
  const core::ResourceDirectedAllocator allocator(model, options);
  const std::vector<double> x{0.3, 0.3, 0.3, 0.1, 0.0, 0.0};
  const std::vector<double> du = model.marginal_utilities(x);
  const core::ConstraintGroup group = model.constraint_groups().front();
  const std::vector<std::size_t> reference =
      fap::testing::active_set_reference(group, x, du, options.alpha,
                                         model.upper_bounds());
  EXPECT_EQ(allocator.active_set(group, x, du, options.alpha), reference);
  const auto step = allocator.step(x);
  EXPECT_EQ(step.active_set_size, reference.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::find(reference.begin(), reference.end(), i) == reference.end()) {
      EXPECT_EQ(step.x[i], x[i]) << "node " << i << " is outside A";
    }
  }
}

// The one case where the shared rule differs from the former Newton/econ
// transcriptions: a node at x_i = 0 whose marginal utility equals the
// group mean exactly has Δx_i = 0, which does not push it below zero, so
// step (i) keeps it (the old copies excluded it and, since it does not
// strictly beat the mean, never re-admitted it). Holds for unit and for
// any weights whose weighted mean is still exactly that marginal.
TEST(Allocator, StepOneKeepsAZeroNodeAtTheMeanMarginal) {
  core::ConstraintGroup group;
  group.indices = {0, 1, 2};
  group.total = 1.0;
  const std::vector<double> x{0.5, 0.0, 0.5};
  const std::vector<double> du{1.0, 2.0, 3.0};  // mean exactly 2
  const std::vector<double> no_caps;
  const std::vector<std::size_t> all{0, 1, 2};
  core::detail::ActiveSetWorkspace ws;
  core::detail::active_set(group, x, du, 0.3, no_caps, 3,
                           core::detail::UnitWeights{}, ws);
  EXPECT_EQ(ws.active, all);
  EXPECT_EQ(fap::testing::active_set_reference(group, x, du, 0.3, no_caps),
            all);
  const std::vector<double> w{0.5, 2.0, 0.5};  // weighted mean also 2
  core::detail::active_set(group, x, du, 0.3, no_caps, 3,
                           core::detail::VariableWeights(w), ws);
  EXPECT_EQ(ws.active, all);
  EXPECT_EQ(
      fap::testing::active_set_reference(group, x, du, 0.3, no_caps, w), all);
}

// --- Catalog-shaped set A -----------------------------------------------
//
// A catalog lane starts from a point mass on priced M/M/1 marginals.
// Step (i) keeps the empty nodes whose marginal reaches the full-group
// mean, about half the group, drop rounds then shed all but one or two
// nodes, and no round re-admits anyone: the heap-free peel in
// core/active_set.cpp. The instances below pin that shape and each way
// the peel ends (settled, a re-admission handing over to the heaps, a
// drop pass emptying the set) against the reference transcription, for
// unit weights and for seeded positive weights.

// core's set A equals the reference's at one (x, ∂U, α), under unit
// weights and under `w`. `ws` is shared across calls, as the allocators
// share theirs.
void expect_sets_match(const core::ConstraintGroup& group,
                       const std::vector<double>& x,
                       const std::vector<double>& du, double alpha,
                       const std::vector<double>& caps,
                       const std::vector<double>& w,
                       core::detail::ActiveSetWorkspace& ws,
                       const std::string& where) {
  core::detail::active_set(group, x, du, alpha, caps, x.size(),
                           core::detail::UnitWeights{}, ws);
  EXPECT_EQ(ws.active,
            fap::testing::active_set_reference(group, x, du, alpha, caps))
      << where << " unit weights";
  core::detail::active_set(group, x, du, alpha, caps, x.size(),
                           core::detail::VariableWeights(w), ws);
  EXPECT_EQ(ws.active,
            fap::testing::active_set_reference(group, x, du, alpha, caps, w))
      << where << " weighted";
}

// Checks set A at every iterate of a serial run of `model` from `start`
// under the catalog's inner options (iteration budget cut to 200).
void expect_run_matches(const core::SingleFileModel& model,
                        const std::vector<double>& start,
                        const core::AllocatorOptions& inner,
                        std::uint64_t seed, const std::string& where) {
  core::AllocatorOptions options = inner;
  options.max_iterations = 200;
  options.record_trace = true;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult result = allocator.run(start);
  const std::vector<double> caps = model.upper_bounds();
  const std::vector<double> w = seeded_weights(model.dimension(), seed);
  const core::ConstraintGroup group = model.constraint_groups().front();
  core::detail::ActiveSetWorkspace ws;
  ASSERT_FALSE(result.trace.empty());
  for (std::size_t t = 0; t < result.trace.size(); ++t) {
    const std::vector<double>& x = result.trace[t].x;
    expect_sets_match(group, x, model.marginal_utilities(x),
                      provisional_alpha(allocator, x, group), caps, w, ws,
                      where + " it=" + std::to_string(t));
  }
}

class CatalogActiveSetTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

// Objects of a synthetic catalog, each assembled as CatalogSolver
// assembles its inner solve: the priced access-cost vector through
// access_cost_override, the object's rate and the shared μ, M/M/1 delay.
// Uncapped, the run starts from the solver's point mass. Capped (storage
// fractions in [0.2, 0.6]), it starts from filling the cheapest nodes to
// their caps, so cap-pinned nodes sit above the mean next to zero nodes.
TEST_P(CatalogActiveSetTest, PointMassAndCappedLanesMatchReferenceAlongRun) {
  const auto [n, seed_param] = GetParam();
  const auto seed = static_cast<std::uint64_t>(seed_param);
  fap::catalog::SyntheticCatalogOptions synth;
  synth.objects = 2000;
  synth.nodes = n;
  synth.zipf_s = 0.9;
  const fap::catalog::CatalogSpec spec =
      fap::catalog::make_synthetic_catalog(synth, seed);
  const fap::catalog::CatalogSolver solver(spec, {});
  fap::util::Rng rng(seed * 31 + n);
  std::vector<double> prices(n);
  for (double& p : prices) {
    p = solver.options().price.price_scale * rng.uniform(0.0, 0.5);
  }
  for (const std::size_t o :
       {std::size_t{0}, std::size_t{1}, std::size_t{7},
        static_cast<std::size_t>(rng.uniform_index(synth.objects)),
        static_cast<std::size_t>(rng.uniform_index(synth.objects))}) {
    const std::vector<double> access = solver.object_access_cost(o, prices);
    std::vector<double> lambda(n, 0.0);
    lambda[spec.home[o]] = spec.rate[o];
    core::SingleFileProblem problem{fap::net::CostMatrix(0),
                                    std::move(lambda),
                                    spec.mu,
                                    spec.k,
                                    spec.delay,
                                    {},
                                    {},
                                    access,
                                    nullptr};
    const std::string where =
        "n=" + std::to_string(n) + " seed=" + std::to_string(seed) +
        " object=" + std::to_string(o);
    expect_run_matches(core::SingleFileModel(problem),
                       solver.object_start(o, prices), solver.options().inner,
                       seed, where);

    std::vector<double> caps(n);
    for (double& cap : caps) {
      cap = rng.uniform(0.2, 0.6);
    }
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return access[a] < access[b];
    });
    std::vector<double> start(n, 0.0);
    double left = 1.0;
    for (const std::size_t i : order) {
      start[i] = std::min(caps[i], left);
      left -= start[i];
      if (left <= 0.0) {
        break;
      }
    }
    problem.storage_capacity = std::move(caps);
    expect_run_matches(core::SingleFileModel(std::move(problem)), start,
                       solver.options().inner, seed, where + " capped");
  }
}

INSTANTIATE_TEST_SUITE_P(CatalogShapes, CatalogActiveSetTest,
                         ::testing::Combine(::testing::Values(32, 100, 257),
                                            ::testing::Values(1, 2)));

// Dropping the cap-pinned node b lowers the active mean below a zero
// node z that step (i) excluded, so z must be re-admitted: the peel hands
// over to the heaps, which replay from step (i). With ∂U_z equal to the
// post-drop mean instead, z's gap is exactly 0 and nobody is re-admitted.
TEST(Allocator, PeelHandsOverToTheHeapsWhenADropReadmitsAZeroNode) {
  core::ConstraintGroup group;
  group.indices = {0, 1, 2, 3};
  group.total = 1.0;
  // a interior, b and c at their caps, z at zero.
  const std::vector<double> x{0.3, 0.3, 0.4, 0.0};
  const std::vector<double> caps{1.0, 0.3, 0.4, 1.0};
  const std::vector<double> unit(4, 1.0);
  const std::vector<double> halves(4, 0.5);
  core::detail::ActiveSetWorkspace ws;
  // Step (i) mean 6.25 keeps {a, b}; their mean 2 pins b; z's 1 beats
  // the new mean 0.
  const std::vector<double> readmit{0.0, 4.0, 20.0, 1.0};
  expect_sets_match(group, x, readmit, 0.3, caps, halves, ws, "readmit");
  EXPECT_EQ(ws.active, (std::vector<std::size_t>{0, 3}));
  const std::vector<double> tie{0.0, 4.0, 20.0, 0.0};
  expect_sets_match(group, x, tie, 0.3, caps, halves, ws, "tie");
  EXPECT_EQ(ws.active, (std::vector<std::size_t>{0}));
  expect_sets_match(group, x, readmit, 0.3, caps, seeded_weights(4, 3), ws,
                    "readmit seeded weights");
  expect_sets_match(group, x, tie, 0.3, caps, unit, ws, "tie unit");
}

// Exact ties with the active mean: a zero node whose ∂U equals it has
// Δx = 0 and stays, and a cap-pinned outsider at the mean has gap 0 and
// is not re-admitted.
TEST(Allocator, PeelKeepsExactTiesWithTheMean) {
  core::ConstraintGroup group;
  group.indices = {0, 1, 2, 3, 4};
  group.total = 1.0;
  // a, b interior; f, z at zero; k at its cap.
  const std::vector<double> x{0.3, 0.3, 0.0, 0.0, 0.4};
  const std::vector<double> caps{1.0, 1.0, 1.0, 1.0, 0.4};
  const std::vector<double> du{1.0, 3.0, 2.0, -10.0, 2.0};
  core::detail::ActiveSetWorkspace ws;
  expect_sets_match(group, x, du, 0.3, caps, std::vector<double>(5, 2.0), ws,
                    "ties");
  EXPECT_EQ(ws.active, (std::vector<std::size_t>{0, 1, 2}));
}

// Three zero nodes with ∂U = 0.1 survive step (i), but their computed
// mean, (0.1 + 0.1 + 0.1) / 3, rounds above 0.1, so the drop pass pins
// all three: the degenerate all-dropped round, handed to the heaps.
TEST(Allocator, PeelHandsOverWhenTheDropPassEmptiesTheSet) {
  core::ConstraintGroup group;
  group.indices = {0, 1, 2, 3, 4};
  group.total = 1.0;
  const std::vector<double> x{0.0, 0.0, 0.0, 1.0, 0.0};
  const std::vector<double> caps{1.0, 1.0, 1.0, 1.0, 1.0};
  const std::vector<double> du{0.1, 0.1, 0.1, 0.5, -5.0};
  ASSERT_GT((du[0] + du[1] + du[2]) / 3.0, du[0]);
  core::detail::ActiveSetWorkspace ws;
  expect_sets_match(group, x, du, 0.3, caps, std::vector<double>(5, 1.0), ws,
                    "all dropped");
}

// In exact arithmetic a node the peel drops can never be re-admitted
// later (shedding zero nodes below the mean only raises it), but rounded
// means are not monotone. Zero node f sits below the computed mean of
// {f, p1..p4}, so it is dropped, and above the computed mean of {p1..p4},
// so it must come back: the peel has to count the nodes it drops as
// outsiders.
TEST(Allocator, PeelReadmitsANodeItDroppedWhenRoundingLowersTheMean) {
  core::ConstraintGroup group;
  group.indices = {0, 1, 2, 3, 4, 5};
  group.total = 1.0;
  // f at zero, p1..p4 interior, z at zero far below the mean.
  const std::vector<double> x{0.0, 0.25, 0.25, 0.25, 0.25, 0.0};
  const std::vector<double> caps(6, 1.0);
  const std::vector<double> du{0x1.999999999999cp-4, 0x1.999999999999bp-4,
                               0x1.999999999999cp-4, 0x1.999999999999ap-4,
                               0x1.999999999999dp-4, -1.0};
  const double mean_with_f = (du[0] + du[1] + du[2] + du[3] + du[4]) / 5.0;
  const double mean_without_f = (du[1] + du[2] + du[3] + du[4]) / 4.0;
  ASSERT_LT(du[0], mean_with_f);
  ASSERT_GT(du[0], mean_without_f);
  core::detail::ActiveSetWorkspace ws;
  expect_sets_match(group, x, du, 0.3, caps, std::vector<double>(6, 1.0), ws,
                    "rounding readmit");
}

// Boundary-heavy random groups: every node at zero, at its cap or
// interior, small-integer marginals (so exact ties with the mean are
// common) and dyadic weights (so weighted means stay exact too).
class BoundaryActiveSetTest : public ::testing::TestWithParam<int> {};

TEST_P(BoundaryActiveSetTest, MatchesReference) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  fap::util::Rng rng(seed * 6151 + 11);
  const std::size_t m = 3 + rng.uniform_index(30);
  core::ConstraintGroup group;
  group.indices.resize(m);
  std::iota(group.indices.begin(), group.indices.end(), std::size_t{0});
  group.total = 1.0;
  std::vector<double> x(m);
  std::vector<double> caps(m);
  std::vector<double> du(m);
  std::vector<double> w(m);
  for (std::size_t i = 0; i < m; ++i) {
    caps[i] = 0.25 * static_cast<double>(1 + rng.uniform_index(4));
    const std::uint64_t state = rng.uniform_index(3);
    x[i] = state == 0 ? 0.0 : state == 1 ? caps[i] : 0.5 * caps[i];
    du[i] = static_cast<double>(rng.uniform_index(9)) - 4.0;
    w[i] = std::ldexp(1.0, static_cast<int>(rng.uniform_index(3)) - 1);
  }
  core::detail::ActiveSetWorkspace ws;
  expect_sets_match(group, x, du, rng.uniform(0.05, 1.0), caps, w, ws,
                    "seed=" + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(RandomGroups, BoundaryActiveSetTest,
                         ::testing::Range(1, 201));

}  // namespace
