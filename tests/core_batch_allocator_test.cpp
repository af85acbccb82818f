// BatchAllocator's load-bearing contract: run_all returns results BITWISE
// equal to running each submission through the serial
// ResourceDirectedAllocator — same x (every iteration of the shared §5.2
// loop executes the serial operation sequence), same cost, same
// iteration count, same convergence flag. The pin is across randomized
// instances mixing dimensions, topologies, delay disciplines, step rules,
// storage capacities and boundary starts in one queue, at several batch
// widths (the width must not be observable).
#include "core/batch_allocator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/allocator.hpp"
#include "core/single_file.hpp"
#include "net/generators.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

using fap::core::AllocationResult;
using fap::core::AllocatorOptions;
using fap::core::BatchAllocator;
using fap::core::BatchRunResult;
using fap::core::ResourceDirectedAllocator;
using fap::core::SingleFileModel;
using fap::core::SingleFileProblem;
using fap::core::StepRule;
using fap::core::Workload;
using fap::queueing::DelayModel;
using fap::util::Rng;

// Bitwise double equality: stricter than EXPECT_EQ (distinguishes -0.0
// from +0.0) — the batch path must reproduce the serial bits exactly.
::testing::AssertionResult BitsEqual(double serial, double batch) {
  if (std::bit_cast<std::uint64_t>(serial) ==
      std::bit_cast<std::uint64_t>(batch)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "serial=" << serial << " batch=" << batch << " differ by "
         << (batch - serial);
}

struct RandomInstance {
  SingleFileModel model;
  AllocatorOptions options;
  std::vector<double> start;
};

fap::net::Topology random_topology(std::size_t n, Rng& rng) {
  switch (rng.uniform_index(4)) {
    case 0:
      return fap::net::make_ring(n, rng.uniform(0.5, 2.0));
    case 1:
      return fap::net::make_complete(n, rng.uniform(0.5, 2.0));
    case 2:
      return fap::net::make_star(n, rng.uniform(0.5, 2.0));
    default:
      return fap::net::make_line(n, rng.uniform(0.5, 2.0));
  }
}

DelayModel random_delay(Rng& rng) {
  switch (rng.uniform_index(5)) {
    case 0:
      return DelayModel::mm1();
    case 1:
      return DelayModel::md1();
    case 2:
      return DelayModel::mg1(rng.uniform(0.2, 2.5));
    case 3:
      // Tangent-extended curve: exercises the knee clamp of the inline
      // delay primitives.
      return DelayModel::mm1(rng.uniform(0.5, 0.9));
    default:
      // Multi-server: evaluated through the checked entry points.
      return DelayModel::mmc(2 + rng.uniform_index(3));
  }
}

// A feasible start covering the interesting shapes: interior, partly on
// the x = 0 boundary, or saturating a capacity.
std::vector<double> random_start(std::size_t n, const std::vector<double>& caps,
                                 Rng& rng) {
  std::vector<double> x(n, 0.0);
  for (double& v : x) {
    v = rng.uniform(0.05, 1.0);
  }
  if (rng.uniform() < 0.4) {
    // Put some nodes exactly on the lower boundary (keep at least one).
    for (std::size_t i = 1; i < n; ++i) {
      if (rng.uniform() < 0.5) {
        x[i] = 0.0;
      }
    }
  }
  double total = 0.0;
  for (const double v : x) {
    total += v;
  }
  for (double& v : x) {
    v /= total;
  }
  if (!caps.empty()) {
    // Clamp to the caps and redistribute the excess proportionally to the
    // remaining headroom (excess <= headroom because total capacity has
    // slack, so one pass cannot overshoot any cap). Some components land
    // exactly ON their cap — the capacity-boundary start shape.
    double excess = 0.0;
    double headroom = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (x[i] > caps[i]) {
        excess += x[i] - caps[i];
        x[i] = caps[i];
      } else {
        headroom += caps[i] - x[i];
      }
    }
    if (excess > 0.0) {
      FAP_EXPECTS(headroom >= excess, "random caps left no slack");
      for (std::size_t i = 0; i < n; ++i) {
        if (x[i] < caps[i]) {
          x[i] += excess * ((caps[i] - x[i]) / headroom);
        }
      }
    }
  }
  return x;
}

RandomInstance make_random_instance(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 3 + rng.uniform_index(10);  // 3..12 nodes
  const fap::net::Topology topology = random_topology(n, rng);
  const DelayModel delay = random_delay(rng);
  // Total rate 1, per-server mu comfortably above it: every reachable
  // allocation (x_i <= 1) is stable even for the pure rho_max = 1 models.
  const double mu = rng.uniform(1.3, 3.0);
  const double k = rng.uniform(0.3, 2.0);
  SingleFileProblem problem = fap::core::make_problem(
      topology, Workload::uniform(n, 1.0), mu, k, delay);
  std::vector<double> caps;
  if (rng.uniform() < 0.4) {
    caps.resize(n);
    for (double& c : caps) {
      c = rng.uniform(0.3, 1.0);
    }
    // Guarantee slack: total capacity at least 1.5x the unit total.
    double total_cap = 0.0;
    for (const double c : caps) {
      total_cap += c;
    }
    if (total_cap < 1.5) {
      for (double& c : caps) {
        c *= 1.5 / total_cap;
      }
    }
    problem.storage_capacity = caps;
  }

  AllocatorOptions options;
  options.alpha = rng.uniform(0.05, 0.5);
  if (rng.uniform() < 0.5) {
    options.step_rule = StepRule::kDynamic;
    options.dynamic_safety = rng.uniform(0.3, 0.9);
  }
  options.epsilon = rng.uniform() < 0.5 ? 1e-3 : 1e-5;
  // Include tight caps so the non-converged retirement path is hit.
  const std::size_t iteration_caps[] = {40, 200, 20000};
  options.max_iterations = iteration_caps[rng.uniform_index(3)];

  RandomInstance inst{SingleFileModel(std::move(problem)), options, {}};
  inst.start = random_start(n, caps, rng);
  return inst;
}

void expect_matches_serial(const RandomInstance& inst,
                           const BatchRunResult& batch, std::size_t index) {
  const ResourceDirectedAllocator serial(inst.model, inst.options);
  const AllocationResult expected = serial.run(inst.start);
  SCOPED_TRACE("instance " + std::to_string(index));
  EXPECT_EQ(expected.converged, batch.converged);
  EXPECT_EQ(expected.iterations, batch.iterations);
  EXPECT_TRUE(BitsEqual(expected.cost, batch.cost));
  ASSERT_EQ(expected.x.size(), batch.x.size());
  for (std::size_t j = 0; j < expected.x.size(); ++j) {
    EXPECT_TRUE(BitsEqual(expected.x[j], batch.x[j])) << "node " << j;
  }
}

// The headline pin: >= 200 randomized instances in one queue, two batch
// widths, every result field bitwise equal to the serial allocator.
TEST(BatchAllocator, BitIdenticalToSerialAcrossRandomizedInstances) {
  constexpr std::size_t kInstances = 200;
  std::vector<RandomInstance> instances;
  instances.reserve(kInstances);
  std::set<std::size_t> dimensions;
  std::size_t capped = 0;
  std::size_t multi_server = 0;
  for (std::size_t i = 0; i < kInstances; ++i) {
    instances.push_back(make_random_instance(1000 + i));
    const SingleFileProblem& problem = instances.back().model.problem();
    dimensions.insert(problem.mu.size());
    capped += problem.storage_capacity.empty() ? 0 : 1;
    multi_server +=
        problem.delay.discipline() == fap::queueing::Discipline::kMMc ? 1 : 0;
  }
  // One run_all must mix dimensions, storage caps and M/M/c instances.
  EXPECT_GE(dimensions.size(), 5u);
  EXPECT_GT(capped, 0u);
  EXPECT_GT(multi_server, 0u);
  for (const std::size_t width : {std::size_t{8}, std::size_t{64}}) {
    BatchAllocator batch(width);
    for (const RandomInstance& inst : instances) {
      batch.submit(inst.model, inst.options, inst.start);
    }
    const std::vector<BatchRunResult> results = batch.run_all();
    ASSERT_EQ(results.size(), kInstances);
    EXPECT_EQ(batch.stats().instances, kInstances);
    EXPECT_GT(batch.stats().lockstep_iterations, 0u);
    for (std::size_t i = 0; i < kInstances; ++i) {
      expect_matches_serial(instances[i], results[i], i);
    }
  }
}

// Degenerate widths: a single lane (pure serial schedule through the
// batch code paths) must agree too.
TEST(BatchAllocator, WidthOneMatchesSerial) {
  BatchAllocator batch(1);
  std::vector<RandomInstance> instances;
  for (std::size_t i = 0; i < 16; ++i) {
    instances.push_back(make_random_instance(7000 + i));
    batch.submit(instances.back().model, instances.back().options,
                 instances.back().start);
  }
  const std::vector<BatchRunResult> results = batch.run_all();
  ASSERT_EQ(results.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    expect_matches_serial(instances[i], results[i], i);
  }
}

// A start already at the optimum terminates without stepping: converged,
// zero iterations, x returned unchanged.
TEST(BatchAllocator, AlreadyConvergedLaneRetiresImmediately) {
  const SingleFileModel model(fap::core::make_paper_ring_problem());
  AllocatorOptions options;
  options.alpha = 0.2;
  options.epsilon = 1e-6;
  const std::vector<double> start(4, 0.25);  // symmetric == optimal
  const AllocationResult serial =
      ResourceDirectedAllocator(model, options).run(start);
  ASSERT_TRUE(serial.converged);

  BatchAllocator batch(8);
  batch.submit(model, options, start);
  const std::vector<BatchRunResult> results = batch.run_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].converged, serial.converged);
  EXPECT_EQ(results[0].iterations, serial.iterations);
  EXPECT_TRUE(BitsEqual(results[0].cost, serial.cost));
}

// Stats::lockstep_iterations is the longest instance in loop passes:
// steps, plus the terminating check of a converged instance. For a
// width-sized queue that mixes converged and capped instances it equals
// the pass count of a lockstep run (the value pinned here is the one the
// lockstep engine reported for this queue).
TEST(BatchAllocator, LockstepIterationsIsTheLongestInstance) {
  constexpr std::size_t kInstances = 16;
  BatchAllocator batch(kInstances);
  for (std::size_t i = 0; i < kInstances; ++i) {
    const RandomInstance inst = make_random_instance(5000 + i);
    batch.submit(inst.model, inst.options, inst.start);
  }
  const std::vector<BatchRunResult> results = batch.run_all();
  std::size_t converged = 0;
  std::size_t longest = 0;
  for (const BatchRunResult& run : results) {
    converged += run.converged ? 1 : 0;
    longest = std::max(longest, run.iterations + (run.converged ? 1 : 0));
  }
  ASSERT_GT(converged, 0u);
  ASSERT_LT(converged, kInstances);
  EXPECT_EQ(batch.stats().lockstep_iterations, longest);
  EXPECT_EQ(batch.stats().lockstep_iterations, 154u);
}

TEST(BatchAllocator, RunAllOnEmptyQueueReturnsEmpty) {
  BatchAllocator batch;
  EXPECT_TRUE(batch.run_all().empty());
  EXPECT_EQ(batch.stats().instances, 0u);
}

// The allocator is reusable: a second round of submissions after
// run_all() behaves like a fresh instance.
TEST(BatchAllocator, ReusableAcrossRounds) {
  const RandomInstance inst = make_random_instance(42);
  BatchAllocator batch(4);
  batch.submit(inst.model, inst.options, inst.start);
  const std::vector<BatchRunResult> first = batch.run_all();
  EXPECT_EQ(batch.pending(), 0u);
  batch.submit(inst.model, inst.options, inst.start);
  const std::vector<BatchRunResult> second = batch.run_all();
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(BitsEqual(first[0].cost, second[0].cost));
  EXPECT_EQ(first[0].iterations, second[0].iterations);
}

// RawInstance is the model-free submit path the catalog engine feeds
// ~1e6 instances through per pricing round: same fields by pointer, same
// validations, bitwise the same results as the model overload.
TEST(BatchAllocator, RawSubmitMatchesModelSubmitBitwise) {
  constexpr std::size_t kInstances = 48;
  std::vector<RandomInstance> instances;
  instances.reserve(kInstances);
  for (std::size_t i = 0; i < kInstances; ++i) {
    instances.push_back(make_random_instance(3000 + i));
  }
  for (const std::size_t width : {std::size_t{1}, std::size_t{16}}) {
    BatchAllocator via_model(width);
    BatchAllocator via_raw(width);
    for (const RandomInstance& inst : instances) {
      via_model.submit(inst.model, inst.options, inst.start);
      const SingleFileProblem& problem = inst.model.problem();
      BatchAllocator::RawInstance raw;
      raw.n = problem.mu.size();
      raw.total_rate = inst.model.total_rate();
      raw.k = problem.k;
      raw.delay = problem.delay;
      raw.access_cost = inst.model.access_costs().data();
      raw.mu = problem.mu.data();
      raw.caps = problem.storage_capacity.empty()
                     ? nullptr
                     : problem.storage_capacity.data();
      raw.start = inst.start.data();
      via_raw.submit(raw, inst.options);
    }
    const std::vector<BatchRunResult> expected = via_model.run_all();
    const std::vector<BatchRunResult> actual = via_raw.run_all();
    ASSERT_EQ(expected.size(), kInstances);
    ASSERT_EQ(actual.size(), kInstances);
    for (std::size_t i = 0; i < kInstances; ++i) {
      SCOPED_TRACE("instance " + std::to_string(i));
      EXPECT_EQ(expected[i].converged, actual[i].converged);
      EXPECT_EQ(expected[i].iterations, actual[i].iterations);
      EXPECT_TRUE(BitsEqual(expected[i].cost, actual[i].cost));
      ASSERT_EQ(expected[i].x.size(), actual[i].x.size());
      for (std::size_t j = 0; j < expected[i].x.size(); ++j) {
        EXPECT_TRUE(BitsEqual(expected[i].x[j], actual[i].x[j]))
            << "node " << j;
      }
    }
  }
}

// A third batch width over a fresh seed range: run_all() (whose one loop
// Stats reports as "scalar") must be bitwise equal to the serial
// allocator whatever the width.
TEST(BatchAllocator, DispatchedKernelsMatchSerialAndScalar) {
  constexpr std::size_t kInstances = 40;
  BatchAllocator batch(16);
  std::vector<RandomInstance> instances;
  for (std::size_t i = 0; i < kInstances; ++i) {
    instances.push_back(make_random_instance(9100 + i));
    batch.submit(instances.back().model, instances.back().options,
                 instances.back().start);
  }
  const std::vector<BatchRunResult> results = batch.run_all();
  EXPECT_STREQ(batch.stats().kernels, "scalar");
  for (std::size_t i = 0; i < kInstances; ++i) {
    expect_matches_serial(instances[i], results[i], i);
  }
}

// The raw path must enforce the same contracts SingleFileModel's
// constructor and check_feasible would — it bypasses both.
TEST(BatchAllocator, RawSubmitValidates) {
  const std::vector<double> access = {1.0, 2.0, 3.0};
  const std::vector<double> mu = {2.0, 2.0, 2.0};
  const std::vector<double> start = {1.0, 0.0, 0.0};
  BatchAllocator batch;
  AllocatorOptions options;
  BatchAllocator::RawInstance raw;
  raw.n = 3;
  raw.total_rate = 1.0;
  raw.k = 1.0;
  raw.delay = DelayModel::mm1();
  raw.access_cost = access.data();
  raw.mu = mu.data();
  raw.start = start.data();
  EXPECT_NO_THROW(batch.submit(raw, options));

  BatchAllocator::RawInstance bad = raw;
  bad.n = 0;
  EXPECT_THROW(batch.submit(bad, options), fap::util::PreconditionError);
  bad = raw;
  bad.access_cost = nullptr;
  EXPECT_THROW(batch.submit(bad, options), fap::util::PreconditionError);
  bad = raw;
  bad.total_rate = 0.0;
  EXPECT_THROW(batch.submit(bad, options), fap::util::PreconditionError);
  bad = raw;
  bad.k = -1.0;
  EXPECT_THROW(batch.submit(bad, options), fap::util::PreconditionError);
  bad = raw;
  bad.total_rate = 2.5;  // >= mu under the pure M/M/1 model: unstable
  EXPECT_THROW(batch.submit(bad, options), fap::util::PreconditionError);
  const std::vector<double> tight_caps = {0.4, 0.3, 0.2};  // Σ < 1
  bad = raw;
  bad.caps = tight_caps.data();
  EXPECT_THROW(batch.submit(bad, options), fap::util::PreconditionError);
  const std::vector<double> heavy = {0.8, 0.8, 0.0};  // Σ != 1
  bad = raw;
  bad.start = heavy.data();
  EXPECT_THROW(batch.submit(bad, options), fap::util::PreconditionError);
  const std::vector<double> over_cap = {0.9, 0.1, 0.0};
  const std::vector<double> caps = {0.5, 0.5, 0.5};
  bad = raw;
  bad.caps = caps.data();
  bad.start = over_cap.data();
  EXPECT_THROW(batch.submit(bad, options), fap::util::PreconditionError);
  AllocatorOptions trace_options;
  trace_options.record_trace = true;
  EXPECT_THROW(batch.submit(raw, trace_options),
               fap::util::PreconditionError);
}

TEST(BatchAllocator, RejectsUnsupportedOptionsAndInfeasibleStarts) {
  const SingleFileModel model(fap::core::make_paper_ring_problem());
  BatchAllocator batch;
  AllocatorOptions options;
  options.record_trace = true;
  EXPECT_THROW(batch.submit(model, options, std::vector<double>(4, 0.25)),
               fap::util::PreconditionError);
  options.record_trace = false;
  EXPECT_THROW(batch.submit(model, options, std::vector<double>(4, 0.5)),
               fap::util::PreconditionError);  // mass 2 != 1: infeasible
  EXPECT_THROW(batch.submit(model, options, std::vector<double>(3, 1.0 / 3)),
               fap::util::PreconditionError);  // 3 shares for 4 nodes
  options.alpha = -1.0;
  EXPECT_THROW(batch.submit(model, options, std::vector<double>(4, 0.25)),
               fap::util::PreconditionError);
}

}  // namespace
