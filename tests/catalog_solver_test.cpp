// CatalogSolver acceptance pins:
//
//   * K = 1 with slack capacity IS the paper's algorithm — the catalog
//     result is bitwise equal to the serial ResourceDirectedAllocator run
//     on the identical single-file problem (handed the solver's own
//     assembled access-cost vector via access_cost_override);
//   * the whole CatalogResult is a pure function of (spec, options):
//     bit-identical across --jobs and batch-width choices;
//   * with slack capacity the engine degenerates to K independent
//     single-file solves at zero prices, each matching its serial twin;
//   * under tight capacity the returned allocation is FEASIBLE: residual
//     <= 1e-9 in volume units, every object's fractions still sum to 1;
//   * at seeded nonzero prices every object of a round matches its
//     serial twin (x bits, iterations, convergence), and whole solves of
//     three committed-shape specs are pinned byte for byte;
//   * malformed and adversarial specs are rejected with a message that
//     names the fault, or solve feasibly.
#include "catalog/catalog_solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog_spec.hpp"
#include "core/allocator.hpp"
#include "core/single_file.hpp"
#include "net/cost_cache.hpp"
#include "net/cost_provider.hpp"
#include "net/generators.hpp"
#include "net/hierarchy.hpp"
#include "net/shortest_paths.hpp"
#include "test_helpers.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"

namespace {

using fap::catalog::CatalogOptions;
using fap::catalog::CatalogResult;
using fap::catalog::CatalogSolver;
using fap::catalog::CatalogSpec;
using fap::catalog::make_synthetic_catalog;
using fap::catalog::Placement;
using fap::catalog::SyntheticCatalogOptions;
using fap::core::AllocationResult;
using fap::core::AllocatorOptions;
using fap::core::StepRule;
using fap::core::ResourceDirectedAllocator;
using fap::core::SingleFileModel;
using fap::core::SingleFileProblem;
using fap::queueing::DelayModel;
using fap::util::PreconditionError;

::testing::AssertionResult BitsEqual(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " vs " << b << " differ by " << (b - a);
}

// Object o's dense allocation vector from the CSR result.
std::vector<double> dense_allocation(const CatalogSpec& spec,
                                     const CatalogResult& result,
                                     std::size_t o) {
  std::vector<double> x(spec.node_count(), 0.0);
  for (std::uint32_t p = result.offsets[o]; p < result.offsets[o + 1]; ++p) {
    x[result.placements[p].node] += result.placements[p].fraction;
  }
  return x;
}

// The serial twin of catalog object o at the given prices: a
// SingleFileModel fed the solver's own priced access-cost vector through
// access_cost_override (no comm matrix, λ concentrated anywhere — the
// override makes the workload's spatial shape irrelevant), run by the
// serial allocator from the solver's own deterministic start.
AllocationResult serial_reference(const CatalogSpec& spec,
                                  const CatalogSolver& solver, std::size_t o,
                                  const std::vector<double>& prices) {
  std::vector<double> lambda(spec.node_count(), 0.0);
  lambda[spec.home[o]] = spec.rate[o];
  SingleFileProblem problem{fap::net::CostMatrix(0),
                            std::move(lambda),
                            spec.mu,
                            spec.k,
                            spec.delay,
                            {},
                            {},
                            solver.object_access_cost(o, prices),
                            nullptr};
  const SingleFileModel model(std::move(problem));
  const ResourceDirectedAllocator serial(model, solver.options().inner);
  return serial.run(solver.object_start(o, prices));
}

// Runs `f`, which must throw PreconditionError naming `message`.
template <class F>
void expect_precondition(F f, const std::string& message) {
  try {
    f();
    ADD_FAILURE() << "no PreconditionError; expected \"" << message << "\"";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << "message was: " << e.what();
  }
}

void expect_identical(const CatalogResult& a, const CatalogResult& b) {
  EXPECT_EQ(a.offsets, b.offsets);
  ASSERT_EQ(a.placements.size(), b.placements.size());
  for (std::size_t p = 0; p < a.placements.size(); ++p) {
    EXPECT_EQ(a.placements[p].node, b.placements[p].node) << "entry " << p;
    EXPECT_TRUE(BitsEqual(a.placements[p].fraction, b.placements[p].fraction))
        << "entry " << p;
  }
  ASSERT_EQ(a.prices.size(), b.prices.size());
  for (std::size_t i = 0; i < a.prices.size(); ++i) {
    EXPECT_TRUE(BitsEqual(a.prices[i], b.prices[i])) << "node " << i;
    EXPECT_TRUE(BitsEqual(a.node_load[i], b.node_load[i])) << "node " << i;
  }
  EXPECT_TRUE(BitsEqual(a.residual, b.residual));
  EXPECT_TRUE(BitsEqual(a.pre_repair_residual, b.pre_repair_residual));
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.price_converged, b.price_converged);
  EXPECT_EQ(a.oscillations, b.oscillations);
  EXPECT_EQ(a.repair_moves, b.repair_moves);
  EXPECT_EQ(a.inner_iterations, b.inner_iterations);
  EXPECT_EQ(a.unconverged_objects, b.unconverged_objects);
  EXPECT_TRUE(BitsEqual(a.hit_rate, b.hit_rate));
  EXPECT_TRUE(BitsEqual(a.external_traffic, b.external_traffic));
  EXPECT_TRUE(BitsEqual(a.mean_fragments, b.mean_fragments));
}

// The ISSUE acceptance pin: K = 1, slack capacity — the catalog engine
// must reproduce the serial paper algorithm bit for bit.
TEST(CatalogSolver, SingleObjectSlackCapacityMatchesSerialBitwise) {
  SyntheticCatalogOptions synth;
  synth.objects = 1;
  synth.nodes = 9;
  synth.headroom = 2.0;
  const CatalogSpec spec = make_synthetic_catalog(synth, 11);
  const CatalogSolver solver(spec, CatalogOptions{});
  const CatalogResult result = solver.solve();

  // Slack capacity: the price loop converges at round 0 with zero prices,
  // no repair touches anything.
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_TRUE(result.price_converged);
  EXPECT_EQ(result.repair_moves, 0u);
  EXPECT_DOUBLE_EQ(result.pre_repair_residual, 0.0);
  for (const double p : result.prices) {
    EXPECT_EQ(p, 0.0);
  }

  const std::vector<double> zero_prices(spec.node_count(), 0.0);
  const AllocationResult expected =
      serial_reference(spec, solver, 0, zero_prices);
  EXPECT_TRUE(expected.converged);
  EXPECT_EQ(result.inner_iterations, expected.iterations);
  EXPECT_EQ(result.unconverged_objects, 0u);
  const std::vector<double> x = dense_allocation(spec, result, 0);
  ASSERT_EQ(x.size(), expected.x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_TRUE(BitsEqual(expected.x[i], x[i])) << "node " << i;
  }
}

// With slack everywhere the catalog is exactly K independent single-file
// problems: every object's allocation matches its serial twin.
TEST(CatalogSolver, SlackCapacityDecomposesIntoIndependentSolves) {
  SyntheticCatalogOptions synth;
  synth.objects = 40;
  synth.nodes = 8;
  synth.headroom = 1.5;
  synth.zipf_s = 1.0;
  const CatalogSpec spec = make_synthetic_catalog(synth, 23);
  const CatalogSolver solver(spec, CatalogOptions{});
  const CatalogResult result = solver.solve();
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_TRUE(result.price_converged);
  EXPECT_EQ(result.repair_moves, 0u);

  const std::vector<double> zero_prices(spec.node_count(), 0.0);
  for (std::size_t o = 0; o < spec.object_count(); ++o) {
    SCOPED_TRACE("object " + std::to_string(o));
    const AllocationResult expected =
        serial_reference(spec, solver, o, zero_prices);
    const std::vector<double> x = dense_allocation(spec, result, o);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_TRUE(BitsEqual(expected.x[i], x[i])) << "node " << i;
    }
  }
}

// Determinism: jobs and batch width are pure throughput knobs — the full
// result struct is bit-identical, including after priced rounds + repair.
TEST(CatalogSolver, JobsAndBatchWidthAreUnobservable) {
  SyntheticCatalogOptions synth;
  synth.objects = 300;
  synth.nodes = 12;
  synth.headroom = 0.12;  // tight: prices move, repair likely engages
  synth.zipf_s = 1.1;
  const CatalogSpec spec = make_synthetic_catalog(synth, 5);

  CatalogOptions serial;
  serial.jobs = 1;
  const CatalogResult reference = CatalogSolver(spec, serial).solve();
  EXPECT_GE(reference.rounds, 1u);

  CatalogOptions parallel = serial;
  parallel.jobs = 4;
  expect_identical(reference, CatalogSolver(spec, parallel).solve());

  CatalogOptions narrow = serial;
  narrow.jobs = 8;
  narrow.batch_width = 7;  // lane partitioning must be unobservable too
  expect_identical(reference, CatalogSolver(spec, narrow).solve());
}

// Feasibility under pressure: tight budgets, hot Zipf head. The returned
// allocation must respect every capacity to 1e-9 volume units and keep
// every object whole.
TEST(CatalogSolver, TightCapacityYieldsFeasibleAllocation) {
  SyntheticCatalogOptions synth;
  synth.objects = 2000;
  synth.nodes = 16;
  synth.headroom = 0.1;
  synth.zipf_s = 0.9;
  const CatalogSpec spec = make_synthetic_catalog(synth, 77);
  const CatalogSolver solver(spec, CatalogOptions{});
  const CatalogResult result = solver.solve();

  EXPECT_LE(result.residual, 1e-9);
  for (std::size_t i = 0; i < spec.node_count(); ++i) {
    EXPECT_LE(result.node_load[i], spec.node_capacity[i] + 1e-9)
        << "node " << i;
  }
  if (result.pre_repair_residual > 1e-9) {
    EXPECT_GE(result.repair_moves, 1u);
  }

  // CSR integrity + per-object conservation (Σ_i x_i^o = 1).
  ASSERT_EQ(result.offsets.size(), spec.object_count() + 1);
  EXPECT_EQ(result.offsets.front(), 0u);
  EXPECT_EQ(result.offsets.back(), result.placements.size());
  for (std::size_t o = 0; o < spec.object_count(); ++o) {
    ASSERT_LE(result.offsets[o], result.offsets[o + 1]);
    fap::util::NeumaierSum mass;
    for (std::uint32_t p = result.offsets[o]; p < result.offsets[o + 1];
         ++p) {
      ASSERT_LT(result.placements[p].node, spec.node_count());
      EXPECT_GT(result.placements[p].fraction, 0.0);
      EXPECT_LE(result.placements[p].fraction, 1.0 + 1e-12);
      mass.add(result.placements[p].fraction);
    }
    EXPECT_NEAR(mass.value(), 1.0, 1e-9) << "object " << o;
  }

  // Node-load accounting self-consistency: the reported loads are the
  // compensated sums over the reported placements.
  std::vector<fap::util::NeumaierSum> loads(spec.node_count());
  for (std::size_t o = 0; o < spec.object_count(); ++o) {
    for (std::uint32_t p = result.offsets[o]; p < result.offsets[o + 1];
         ++p) {
      loads[result.placements[p].node].add(spec.volume[o] *
                                           result.placements[p].fraction);
    }
  }
  for (std::size_t i = 0; i < spec.node_count(); ++i) {
    EXPECT_TRUE(BitsEqual(loads[i].value(), result.node_load[i]))
        << "node " << i;
  }

  EXPECT_GE(result.hit_rate, 0.0);
  EXPECT_LE(result.hit_rate, 1.0);
  EXPECT_GT(result.external_traffic, 0.0);
  EXPECT_GE(result.mean_fragments, 1.0);
}

// Warm-started re-solve: seeding the price loop with a previous solve's
// final prices must stay feasible and not spend more rounds than the
// cold start — the point of carrying prices across perturbed specs.
TEST(CatalogSolver, WarmStartedResolveIsFeasibleAndNoSlower) {
  SyntheticCatalogOptions synth;
  synth.objects = 2000;
  synth.nodes = 16;
  synth.headroom = 0.1;
  synth.zipf_s = 0.9;
  const CatalogSpec spec = make_synthetic_catalog(synth, 77);
  const CatalogResult cold = CatalogSolver(spec, CatalogOptions{}).solve();
  EXPECT_GT(cold.rounds, 1u);  // tight capacity: prices actually move

  CatalogOptions warm_options;
  warm_options.price.initial_prices = cold.prices;
  const CatalogResult warm = CatalogSolver(spec, warm_options).solve();
  EXPECT_LE(warm.residual, 1e-9);
  EXPECT_LE(warm.rounds, cold.rounds);
  for (std::size_t i = 0; i < spec.node_count(); ++i) {
    EXPECT_LE(warm.node_load[i], spec.node_capacity[i] + 1e-9)
        << "node " << i;
  }
  for (std::size_t o = 0; o < spec.object_count(); ++o) {
    fap::util::NeumaierSum mass;
    for (std::uint32_t p = warm.offsets[o]; p < warm.offsets[o + 1]; ++p) {
      mass.add(warm.placements[p].fraction);
    }
    EXPECT_NEAR(mass.value(), 1.0, 1e-9) << "object " << o;
  }

  // Explicit zeros are the cold start, bit for bit.
  CatalogOptions zeros;
  zeros.price.initial_prices.assign(spec.node_count(), 0.0);
  expect_identical(cold, CatalogSolver(spec, zeros).solve());
}

// A hand-built spec where the optimum is obvious: full locality, huge
// capacity, cheap home service — everything lands at home, so hit rate
// is exactly 1 and external traffic exactly 0.
TEST(CatalogSolver, FullyLocalCatalogHitsAtHome) {
  CatalogSpec spec;
  spec.comm =
      fap::net::all_pairs_shortest_paths(fap::net::make_complete(2, 1.0));
  spec.node_capacity = {10.0, 10.0};
  spec.mu = {50.0, 50.0};
  spec.k = 1.0;
  spec.origin_weight = {0.5, 0.5};
  spec.locality = 1.0;
  spec.rate = {1.0, 1.0, 1.0, 1.0};
  spec.volume = {1.0, 1.0, 1.0, 1.0};
  spec.home = {0, 1, 0, 1};

  const CatalogResult result = CatalogSolver(spec, CatalogOptions{}).solve();
  EXPECT_DOUBLE_EQ(result.hit_rate, 1.0);
  EXPECT_DOUBLE_EQ(result.external_traffic, 0.0);
  EXPECT_DOUBLE_EQ(result.mean_fragments, 1.0);
  for (std::size_t o = 0; o < spec.object_count(); ++o) {
    const std::vector<double> x = dense_allocation(spec, result, o);
    EXPECT_EQ(x[spec.home[o]], 1.0) << "object " << o;
  }
  EXPECT_TRUE(BitsEqual(result.node_load[0], 2.0));
  EXPECT_TRUE(BitsEqual(result.node_load[1], 2.0));
}

// The synthetic generator is a pure function of (options, seed), and the
// cache-aware overload returns the identical spec.
TEST(CatalogSpecTest, SyntheticCatalogIsDeterministic) {
  SyntheticCatalogOptions synth;
  synth.objects = 128;
  synth.nodes = 10;
  const CatalogSpec a = make_synthetic_catalog(synth, 7);
  const CatalogSpec b = make_synthetic_catalog(synth, 7);
  EXPECT_EQ(a.rate, b.rate);
  EXPECT_EQ(a.volume, b.volume);
  EXPECT_EQ(a.home, b.home);
  EXPECT_EQ(a.node_capacity, b.node_capacity);
  EXPECT_EQ(a.origin_weight, b.origin_weight);
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    for (std::size_t j = 0; j < a.node_count(); ++j) {
      EXPECT_TRUE(BitsEqual(a.comm.row(i)[j], b.comm.row(i)[j]));
    }
  }

  fap::net::CostMatrixCache cache;
  const CatalogSpec c = make_synthetic_catalog(synth, 7, cache);
  EXPECT_EQ(a.volume, c.volume);
  EXPECT_EQ(a.home, c.home);
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    for (std::size_t j = 0; j < a.node_count(); ++j) {
      EXPECT_TRUE(BitsEqual(a.comm.row(i)[j], c.comm.row(i)[j]));
    }
  }

  const CatalogSpec d = make_synthetic_catalog(synth, 8);
  EXPECT_NE(a.volume, d.volume);  // different seed, different catalog

  // Rates follow the Zipf head-first ordering and keep queues stable.
  EXPECT_GT(a.rate.front(), a.rate.back());
  EXPECT_LT(a.rate.front(), a.mu.front());
}

// Providers are unobservable in the catalog result: the identical
// synthetic catalog over a geo-tier tree, solved through the dense matrix,
// the row-based provider, and the implicit tier-arithmetic provider, must
// return bit-identical CatalogResults — including after priced rounds.
TEST(CatalogSolver, ProviderBackedCatalogMatchesDenseBitwise) {
  const fap::net::TieredNetwork tiered = fap::net::make_geo_tiers(2, 2, 2);
  SyntheticCatalogOptions synth;
  synth.objects = 96;
  synth.nodes = tiered.topology.node_count();  // 21
  synth.headroom = 0.12;  // tight: the price loop actually engages
  synth.zipf_s = 1.0;
  const std::uint64_t seed = 29;

  const CatalogSpec dense = make_synthetic_catalog(
      synth, seed, fap::net::all_pairs_shortest_paths(tiered.topology));
  const CatalogResult reference = CatalogSolver(dense, CatalogOptions{}).solve();

  const CatalogSpec rows = make_synthetic_catalog(
      synth, seed,
      std::make_shared<fap::net::RowCostProvider>(tiered.topology,
                                                  /*row_cache_capacity=*/4));
  expect_identical(reference, CatalogSolver(rows, CatalogOptions{}).solve());

  const CatalogSpec implicit = make_synthetic_catalog(
      synth, seed,
      std::make_shared<fap::net::HierarchicalCostProvider>(tiered.spec));
  expect_identical(reference,
                   CatalogSolver(implicit, CatalogOptions{}).solve());

  // Provider-backed solves stay jobs-invariant too (the row cache is
  // shared across workers; single-flight keeps the bytes deterministic).
  CatalogOptions parallel;
  parallel.jobs = 4;
  expect_identical(reference, CatalogSolver(rows, parallel).solve());
}

TEST(CatalogSpecTest, ProviderOverloadValidatesNodeCount) {
  SyntheticCatalogOptions synth;
  synth.objects = 8;
  synth.nodes = 6;
  const fap::net::Topology ring = fap::net::make_ring(5, 1.0);  // wrong size
  EXPECT_THROW(
      make_synthetic_catalog(synth, 3,
                             std::make_shared<fap::net::RowCostProvider>(ring)),
      PreconditionError);
}

// The topology-generating overloads build a random metric, which needs
// two nodes; both reject a smaller network with the catalog's own
// message rather than the generator's.
TEST(CatalogSpecTest, SyntheticMetricNetworkNeedsTwoNodes) {
  SyntheticCatalogOptions synth;
  synth.objects = 8;
  for (const std::size_t nodes : {std::size_t{0}, std::size_t{1}}) {
    SCOPED_TRACE("nodes " + std::to_string(nodes));
    synth.nodes = nodes;
    expect_precondition([&] { make_synthetic_catalog(synth, 3); },
                        "random-metric network needs at least two nodes");
    fap::net::CostMatrixCache cache;
    expect_precondition([&] { make_synthetic_catalog(synth, 3, cache); },
                        "random-metric network needs at least two nodes");
  }
  synth.nodes = 2;
  EXPECT_EQ(make_synthetic_catalog(synth, 3).node_count(), 2u);
}

TEST(CatalogSolver, ValidatesSpecAndOptions) {
  SyntheticCatalogOptions synth;
  synth.objects = 4;
  synth.nodes = 4;
  const CatalogSpec good = make_synthetic_catalog(synth, 1);
  EXPECT_NO_THROW(CatalogSolver(good, CatalogOptions{}));

  CatalogSpec bad = good;
  bad.home.back() = 9;  // out of range
  EXPECT_THROW(CatalogSolver(bad, CatalogOptions{}), PreconditionError);
  bad = good;
  bad.rate.pop_back();  // SoA size mismatch
  EXPECT_THROW(CatalogSolver(bad, CatalogOptions{}), PreconditionError);
  bad = good;
  bad.locality = 1.5;
  EXPECT_THROW(CatalogSolver(bad, CatalogOptions{}), PreconditionError);
  bad = good;
  for (double& cap : bad.node_capacity) {
    cap = 0.1;  // cannot hold the catalog
  }
  EXPECT_THROW(CatalogSolver(bad, CatalogOptions{}), PreconditionError);

  CatalogOptions options;
  options.batch_width = 0;
  EXPECT_THROW(CatalogSolver(good, options), PreconditionError);
  options = CatalogOptions{};
  options.repair_margin = 1.0;
  EXPECT_THROW(CatalogSolver(good, options), PreconditionError);
  options = CatalogOptions{};
  options.max_repair_passes = 0;
  EXPECT_THROW(CatalogSolver(good, options), PreconditionError);

  // The inner-solve options are checked once, up front, with the
  // serial allocator's messages.
  const auto expect_inner_rejected = [&good](AllocatorOptions inner,
                                             const std::string& message) {
    CatalogOptions bad_options;
    bad_options.inner = inner;
    expect_precondition([&] { CatalogSolver(good, bad_options); }, message);
  };
  const AllocatorOptions defaults = CatalogOptions{}.inner;
  AllocatorOptions inner = defaults;
  inner.alpha = 0.0;
  expect_inner_rejected(inner, "step size must be positive");
  inner = defaults;
  inner.epsilon = -1e-4;
  expect_inner_rejected(inner, "epsilon must be positive");
  inner = defaults;
  inner.max_iterations = 0;
  expect_inner_rejected(inner, "need at least one iteration");
  inner = defaults;
  inner.dynamic_safety = 0.0;
  expect_inner_rejected(inner, "dynamic_safety must be in (0, 1]");
  inner.dynamic_safety = 1.5;
  expect_inner_rejected(inner, "dynamic_safety must be in (0, 1]");
  inner = defaults;
  inner.record_trace = true;
  expect_inner_rejected(inner, "do not record traces");
  inner = defaults;
  inner.step_rule = StepRule::kDynamic;
  inner.dynamic_safety = 1.0;
  EXPECT_NO_THROW({
    CatalogOptions dynamic;
    dynamic.inner = inner;
    CatalogSolver(good, dynamic);
  });

  // solve_round needs one price per node.
  const CatalogSolver solver(good, CatalogOptions{});
  EXPECT_THROW(solver.solve_round(std::vector<double>(3, 0.0)),
               PreconditionError);
}

// Non-finite spec fields are rejected at validate() with a message that
// names the field, instead of passing the sign checks and failing deep
// in the solve (k, μ, rates) or being misreported by the capacity-total
// check (budgets, volumes).
TEST(CatalogSpecTest, RejectsNonFiniteInputsWithTheirOwnMessages) {
  SyntheticCatalogOptions synth;
  synth.objects = 50;
  synth.nodes = 8;
  const CatalogSpec good = make_synthetic_catalog(synth, 13);
  EXPECT_NO_THROW(good.validate());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();

  struct Case {
    const char* message;
    void (*corrupt)(CatalogSpec&, double);
  };
  const Case cases[] = {
      {"k must be finite", [](CatalogSpec& s, double v) { s.k = v; }},
      {"service rates must be finite",
       [](CatalogSpec& s, double v) { s.mu[2] = v; }},
      {"object rates must be finite",
       [](CatalogSpec& s, double v) { s.rate[17] = v; }},
      {"object volumes must be finite",
       [](CatalogSpec& s, double v) { s.volume[3] = v; }},
      {"capacity budgets must be finite",
       [](CatalogSpec& s, double v) { s.node_capacity[1] = v; }},
      {"locality must be finite",
       [](CatalogSpec& s, double v) { s.locality = v; }},
      {"origin weights must be finite",
       [](CatalogSpec& s, double v) { s.origin_weight[4] = v; }},
  };
  for (const Case& c : cases) {
    for (const double value : {kInf, -kInf, kNan}) {
      SCOPED_TRACE(std::string(c.message) + " with " + std::to_string(value));
      CatalogSpec bad = good;
      c.corrupt(bad, value);
      expect_precondition([&] { bad.validate(); }, c.message);
      expect_precondition([&] { CatalogSolver(bad, CatalogOptions{}); },
                          c.message);
    }
  }
}

// Seeded adversarial specs at the solver's entry point: one-node
// networks, networks where every node ties, and catalogs far larger
// than the capacity. Valid ones must solve feasibly and deterministically;
// the overfull ones must be rejected up front.
TEST(CatalogSpecTest, AdversarialSpecsSolveFeasiblyOrAreRejected) {
  const auto check_feasible = [](const CatalogSpec& spec,
                                 const CatalogResult& r) {
    EXPECT_LE(r.residual, 1e-9);
    ASSERT_EQ(r.offsets.size(), spec.object_count() + 1);
    for (std::size_t o = 0; o < spec.object_count(); ++o) {
      fap::util::NeumaierSum mass;
      for (std::uint32_t p = r.offsets[o]; p < r.offsets[o + 1]; ++p) {
        ASSERT_LT(r.placements[p].node, spec.node_count());
        EXPECT_GT(r.placements[p].fraction, 0.0);
        mass.add(r.placements[p].fraction);
      }
      EXPECT_NEAR(mass.value(), 1.0, 1e-9) << "object " << o;
    }
  };

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fap::util::Rng rng(seed);
    const std::size_t objects = 20 + rng.uniform_index(80);

    // n = 1: every object sits whole on the only node. (Built by hand:
    // the synthetic generator's random metric needs two nodes.)
    {
      CatalogSpec spec;
      spec.comm = fap::net::CostMatrix(1);
      spec.mu = {1.0};
      spec.k = rng.uniform(0.1, 2.0);
      spec.origin_weight = {1.0};
      spec.locality = rng.uniform(0.0, 1.0);
      double volume_total = 0.0;
      for (std::size_t o = 0; o < objects; ++o) {
        spec.rate.push_back(rng.uniform(0.01, 0.9));
        spec.volume.push_back(rng.uniform(0.05, 1.0));
        spec.home.push_back(0);
        volume_total += spec.volume.back();
      }
      spec.node_capacity = {volume_total * rng.uniform(1.0, 1.5)};
      const CatalogResult r = CatalogSolver(spec, CatalogOptions{}).solve();
      check_feasible(spec, r);
      for (std::size_t o = 0; o < spec.object_count(); ++o) {
        ASSERT_EQ(r.offsets[o + 1] - r.offsets[o], 1u);
        EXPECT_EQ(r.placements[r.offsets[o]].fraction, 1.0);
      }
    }

    // All-tied access costs: a complete graph with equal links, a uniform
    // origin mix, no locality and equal service rates, so every node is
    // interchangeable and only index order breaks ties.
    {
      const std::size_t n = 2 + rng.uniform_index(10);
      CatalogSpec spec;
      spec.comm = fap::net::all_pairs_shortest_paths(
          fap::net::make_complete(n, rng.uniform(0.5, 2.0)));
      spec.mu.assign(n, 1.0);
      spec.k = rng.uniform(0.1, 2.0);
      spec.origin_weight.assign(n, 1.0 / static_cast<double>(n));
      spec.locality = 0.0;
      double volume_total = 0.0;
      for (std::size_t o = 0; o < objects; ++o) {
        spec.rate.push_back(rng.uniform(0.01, 0.5));
        spec.volume.push_back(rng.uniform(0.05, 1.0));
        spec.home.push_back(static_cast<std::uint32_t>(rng.uniform_index(n)));
        volume_total += spec.volume.back();
      }
      spec.node_capacity.assign(
          n, volume_total * rng.uniform(1.01, 1.5) / static_cast<double>(n));
      const CatalogResult r = CatalogSolver(spec, CatalogOptions{}).solve();
      check_feasible(spec, r);
      CatalogOptions sharded;
      sharded.jobs = 3;
      sharded.batch_width = 5;
      expect_identical(r, CatalogSolver(spec, sharded).solve());
    }

    // Total volume far beyond total capacity: rejected before any solve.
    {
      SyntheticCatalogOptions synth;
      synth.objects = objects;
      synth.nodes = 2 + rng.uniform_index(10);
      CatalogSpec spec = make_synthetic_catalog(synth, seed);
      const double shrink = rng.uniform(1e-3, 0.5);
      for (double& cap : spec.node_capacity) {
        cap *= shrink;
      }
      expect_precondition([&] { CatalogSolver(spec, CatalogOptions{}); },
                          "total capacity must hold the total catalog volume");
    }
  }
}

// FNV-1a over the solved bytes: the CSR offsets, every placement's node
// and fraction bits, and the final prices.
std::uint64_t result_hash(const CatalogResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const std::uint32_t offset : r.offsets) {
    mix(offset);
  }
  for (const Placement& placement : r.placements) {
    mix(placement.node);
    mix(std::bit_cast<std::uint64_t>(placement.fraction));
  }
  for (const double price : r.prices) {
    mix(std::bit_cast<std::uint64_t>(price));
  }
  return h;
}

struct PinnedOutputs {
  std::size_t rounds;
  std::uint64_t inner_iterations;
  std::size_t unconverged_objects;
  std::size_t repair_moves;
  double residual;
  double pre_repair_residual;
  double hit_rate;
  double external_traffic;
  std::uint64_t hash;
};

void expect_pinned(const CatalogResult& r, const PinnedOutputs& pin) {
  char actual[512];
  std::snprintf(actual, sizeof actual,
                "actual {%zu, %" PRIu64 ", %zu, %zu, %a, %a, %a, %a, "
                "0x%016" PRIx64 "ULL}",
                r.rounds, r.inner_iterations, r.unconverged_objects,
                r.repair_moves, r.residual, r.pre_repair_residual,
                r.hit_rate, r.external_traffic, result_hash(r));
  SCOPED_TRACE(actual);
  EXPECT_EQ(r.rounds, pin.rounds);
  EXPECT_EQ(r.inner_iterations, pin.inner_iterations);
  EXPECT_EQ(r.unconverged_objects, pin.unconverged_objects);
  EXPECT_EQ(r.repair_moves, pin.repair_moves);
  EXPECT_TRUE(BitsEqual(r.residual, pin.residual));
  EXPECT_TRUE(BitsEqual(r.pre_repair_residual, pin.pre_repair_residual));
  EXPECT_TRUE(BitsEqual(r.hit_rate, pin.hit_rate));
  EXPECT_TRUE(BitsEqual(r.external_traffic, pin.external_traffic));
  EXPECT_EQ(result_hash(r), pin.hash);
}

// Byte-level pins of whole solves, so a rewrite of the inner-solve path
// must reproduce every round, price and repair move: a contended and a
// slack catalog on a 32-node metric network, and a contended catalog on
// a geo-tier tree streamed through the implicit (tier-arithmetic)
// provider.
TEST(CatalogSolver, OutputsArePinned) {
  SyntheticCatalogOptions synth;
  synth.objects = 2000;
  synth.nodes = 32;
  synth.zipf_s = 0.9;

  synth.headroom = 0.1;
  const CatalogSpec contended = make_synthetic_catalog(synth, 3);
  {
    SCOPED_TRACE("contended");
    expect_pinned(CatalogSolver(contended, CatalogOptions{}).solve(),
                  PinnedOutputs{16, 24359, 5, 19, 0x0p+0,
                                0x1.50150249cfa38p+1, 0x1.a58c253e73409p-2,
                                0x1.dd2a2b1b20971p+0,
                                0xb6fad2e8163ea378ULL});
  }

  synth.headroom = 2.0;
  const CatalogSpec slack = make_synthetic_catalog(synth, 3);
  {
    SCOPED_TRACE("slack");
    expect_pinned(CatalogSolver(slack, CatalogOptions{}).solve(),
                  PinnedOutputs{1, 9698, 0, 0, 0x0p+0, 0x0p+0,
                                0x1.aa5d08df4bcaep-2, 0x1.d9c1ef608e4a9p+0,
                                0x28b83045950aad21ULL});
  }

  const fap::net::TieredNetwork tiered = fap::net::make_geo_tiers(2, 2, 4);
  SyntheticCatalogOptions geo;
  geo.objects = 600;
  geo.nodes = tiered.topology.node_count();  // 29
  geo.headroom = 0.12;
  const CatalogSpec implicit = make_synthetic_catalog(
      geo, 5,
      std::make_shared<fap::net::HierarchicalCostProvider>(tiered.spec));
  {
    SCOPED_TRACE("geo-tiers implicit");
    expect_pinned(CatalogSolver(implicit, CatalogOptions{}).solve(),
                  PinnedOutputs{16, 26071, 0, 35, 0x0p+0,
                                0x1.b7a3f354658a4p+0, 0x1.ca06b78374784p-2,
                                0x1.a03fb3f6fd212p+5,
                                0x867f149d0488b234ULL});
  }
}

// Seeded prices of the order of the base access-cost spread, so the
// v_o·p_i terms re-rank nodes and many objects fragment.
std::vector<double> seeded_prices(const CatalogSolver& solver,
                                  std::uint64_t seed) {
  const std::vector<double>& base = solver.base_access_cost();
  const auto [lo, hi] = std::minmax_element(base.begin(), base.end());
  const double span = *hi - *lo > 0.0 ? *hi - *lo : 1.0;
  fap::util::Rng rng(seed);
  std::vector<double> prices(base.size());
  for (double& p : prices) {
    p = span * rng.uniform();
  }
  return prices;
}

// Every object of a priced round is the paper's serial algorithm on that
// object's single-file problem: the same x bits, the same iteration
// count and the same convergence flag, for every delay discipline the
// catalog accepts, both step rules, and dense and provider-backed specs.
// The iteration cap is lowered so capped objects are covered too.
TEST(CatalogSolver, RoundMatchesSerialAllocatorBitwise) {
  struct Case {
    const char* name;
    DelayModel delay;
    StepRule rule;
    bool provider;
    std::size_t objects;
  };
  const Case cases[] = {
      {"mm1 fixed", DelayModel::mm1(), StepRule::kFixed, false, 160},
      {"mm1 dynamic", DelayModel::mm1(), StepRule::kDynamic, false, 160},
      {"mmc fixed", DelayModel::mmc(2), StepRule::kFixed, false, 40},
      {"mmc dynamic", DelayModel::mmc(3), StepRule::kDynamic, false, 40},
      {"tangent fixed", DelayModel::mm1(0.3), StepRule::kFixed, false, 160},
      {"tangent dynamic", DelayModel::mg1(2.0, 0.3), StepRule::kDynamic,
       false, 160},
      {"provider fixed", DelayModel::mm1(), StepRule::kFixed, true, 120},
      {"provider dynamic", DelayModel::md1(), StepRule::kDynamic, true, 120},
  };
  const fap::net::TieredNetwork tiered = fap::net::make_geo_tiers(2, 2, 2);
  std::uint64_t seed = 101;
  std::size_t capped = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SyntheticCatalogOptions synth;
    synth.objects = c.objects;
    synth.zipf_s = 0.9;
    synth.headroom = 0.2;
    CatalogSpec spec;
    if (c.provider) {
      synth.nodes = tiered.topology.node_count();  // 21
      spec = make_synthetic_catalog(
          synth, seed,
          std::make_shared<fap::net::HierarchicalCostProvider>(tiered.spec));
    } else {
      synth.nodes = 11;
      spec = make_synthetic_catalog(synth, seed);
    }
    spec.delay = c.delay;

    CatalogOptions options;
    options.inner.step_rule = c.rule;
    options.inner.max_iterations = 300;
    options.batch_width = 16;  // several objects share each sweep task
    const CatalogSolver solver(spec, options);
    const std::vector<double> prices = seeded_prices(solver, seed);
    const std::vector<CatalogSolver::ObjectAllocation> round =
        solver.solve_round(prices);
    ASSERT_EQ(round.size(), spec.object_count());

    std::size_t fragmented = 0;
    for (std::size_t o = 0; o < spec.object_count(); ++o) {
      SCOPED_TRACE("object " + std::to_string(o));
      const AllocationResult expected =
          serial_reference(spec, solver, o, prices);
      EXPECT_EQ(round[o].iterations, expected.iterations);
      EXPECT_EQ(round[o].converged, expected.converged);
      std::vector<double> x(spec.node_count(), 0.0);
      for (const Placement& placement : round[o].placements) {
        ASSERT_LT(placement.node, spec.node_count());
        EXPECT_NE(placement.fraction, 0.0);
        x[placement.node] = placement.fraction;
      }
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_TRUE(BitsEqual(expected.x[i], x[i])) << "node " << i;
      }
      capped += expected.converged ? 0 : 1;
      fragmented += round[o].placements.size() > 1 ? 1 : 0;
    }
    // The round must exercise more than point masses.
    EXPECT_GT(fragmented, 0u);
    ++seed;
  }
  EXPECT_GT(capped, 0u);  // the cap path is covered as well
}

// The zero-load identity the catalog's per-node marginal table rests on:
// at x_i = 0 the arrival rate is a = λ·0 = +0 and a·T'(a) = +0, so the
// model's marginal utility −(C_i + k(T(a) + a T'(a))) is bit-for-bit
// −(C_i + k·T_i(0)), and its curvature λk(2T'(a) + a T''(a)) is
// (λk)·(2T'_i(0)) — for every delay discipline, pure or tangent-extended.
TEST(CatalogSolver, ZeroLoadMarginalIdentityHoldsForEveryDelayModel) {
  const DelayModel delays[] = {
      DelayModel::mm1(),         DelayModel::md1(),
      DelayModel::mg1(2.5),      DelayModel::mmc(3),
      DelayModel::mm1(0.4),      DelayModel::mg1(0.5, 0.6),
      DelayModel::mmc(2, 0.7)};
  fap::util::Rng rng(44);
  constexpr std::size_t kNodes = 7;
  for (const DelayModel& delay : delays) {
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<double> mu(kNodes);
      std::vector<double> access(kNodes);
      double mu_min = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < kNodes; ++i) {
        mu[i] = rng.uniform(0.5, 3.0);
        access[i] = rng.uniform(0.0, 4.0);
        mu_min = std::min(mu_min, mu[i]);
      }
      const double rate = rng.uniform(0.01, 0.9) * mu_min;
      const double k = trial == 0 ? 0.0 : rng.uniform(0.1, 3.0);
      std::vector<double> lambda(kNodes, 0.0);
      lambda[0] = rate;
      SingleFileProblem problem{fap::net::CostMatrix(0),
                                std::move(lambda),
                                mu,
                                k,
                                delay,
                                {},
                                {},
                                access,
                                nullptr};
      const SingleFileModel model(std::move(problem));
      const std::size_t support = trial % kNodes;
      std::vector<double> x(kNodes, 0.0);
      x[support] = 1.0;
      const std::vector<double> du = model.marginal_utilities(x);
      const std::vector<double> d2c = model.second_derivative(x);
      for (std::size_t i = 0; i < kNodes; ++i) {
        if (i == support) {
          continue;
        }
        const double k_t0 = k * delay.sojourn(0.0, mu[i]);
        const double two_dt0 = 2.0 * delay.d_sojourn(0.0, mu[i]);
        EXPECT_TRUE(BitsEqual(du[i], -(access[i] + k_t0)))
            << "trial " << trial << " node " << i;
        EXPECT_TRUE(BitsEqual(d2c[i], (rate * k) * two_dt0))
            << "trial " << trial << " node " << i;
      }
    }
  }
}

// The start scan's pruning rests on this: as computed, the sojourn time
// never falls below its zero-load value, T(a, μ) ≥ T(0, μ) = fl(1/μ),
// for every delay law, below and (for the extended laws) above the knee.
// start_node prunes on it for every law but extended M/M/c, whose
// finite-difference tangent slope it cannot prove non-negative; that law
// is sampled here as well.
TEST(CatalogSolver, SojournNeverFallsBelowItsZeroLoadValue) {
  fap::util::Rng rng(45);
  for (const DelayModel& delay : fap::testing::interesting_models()) {
    for (int trial = 0; trial < 400; ++trial) {
      const double mu = rng.uniform(0.05, 20.0);
      const double capacity = delay.capacity(mu);
      const double knee = delay.rho_max() * capacity;
      const double t0 = delay.sojourn(0.0, mu);
      EXPECT_TRUE(BitsEqual(t0, 1.0 / mu));
      const double below =
          trial == 0 ? 0.0 : rng.uniform(0.0, 0.999) * knee;
      EXPECT_GE(delay.sojourn(below, mu), t0) << "a " << below;
      if (delay.rho_max() < 1.0) {
        const double above = knee * rng.uniform(1.0, 4.0);
        EXPECT_GE(delay.sojourn(above, mu), t0) << "a " << above;
      }
    }
  }
}

// object_start's pruned scan returns the full argmin: randomized priced
// catalogs under every delay law, on networks where some nodes are exact
// copies of others (same costs, rates and prices), so the strict-<
// lowest-index tie rule is exercised.
TEST(CatalogSolver, ObjectStartMatchesUnprunedArgmin) {
  fap::util::Rng rng(46);
  std::size_t ties = 0;
  for (const DelayModel& delay : fap::testing::interesting_models()) {
    for (int trial = 0; trial < 3; ++trial) {
      // Base network plus copies: node i plays base node source[i].
      const std::size_t base = 3 + rng.uniform_index(6);
      std::vector<std::size_t> source(base);
      for (std::size_t b = 0; b < base; ++b) {
        source[b] = b;
      }
      const std::size_t copies = 1 + rng.uniform_index(base);
      for (std::size_t c = 0; c < copies; ++c) {
        const std::size_t pos = rng.uniform_index(source.size() + 1);
        source.insert(source.begin() + static_cast<std::ptrdiff_t>(pos),
                      rng.uniform_index(base));
      }
      const std::size_t n = source.size();
      std::vector<std::vector<double>> base_cost(base,
                                                 std::vector<double>(base));
      std::vector<double> base_mu(base);
      std::vector<double> base_price(base);
      for (std::size_t a = 0; a < base; ++a) {
        base_mu[a] = rng.uniform(0.5, 3.0);
        base_price[a] = rng.uniform(0.0, 2.0);
        for (std::size_t b = 0; b < base; ++b) {
          base_cost[a][b] = a == b ? 0.0 : rng.uniform(0.5, 4.0);
        }
      }
      CatalogSpec spec;
      spec.comm = fap::net::CostMatrix(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          spec.comm.set_cost(i, j, base_cost[source[i]][source[j]]);
        }
        spec.mu.push_back(base_mu[source[i]]);
      }
      std::vector<double> prices(n);
      for (std::size_t i = 0; i < n; ++i) {
        prices[i] = base_price[source[i]];
      }
      spec.k = rng.uniform(0.1, 3.0);
      spec.delay = delay;
      spec.origin_weight.assign(n, 1.0 / static_cast<double>(n));
      spec.locality = rng.uniform(0.0, 1.0);
      double capacity = std::numeric_limits<double>::infinity();
      for (const double mu : spec.mu) {
        capacity = std::min(capacity, delay.capacity(mu));
      }
      double volume_total = 0.0;
      for (int o = 0; o < 60; ++o) {
        // Past the knee for the extended laws.
        spec.rate.push_back(
            rng.uniform(0.01, delay.rho_max() < 1.0 ? 2.0 : 0.95) *
            capacity);
        spec.volume.push_back(rng.uniform(0.1, 1.0));
        spec.home.push_back(static_cast<std::uint32_t>(rng.uniform_index(n)));
        volume_total += spec.volume.back();
      }
      spec.node_capacity.assign(n, volume_total);
      const CatalogSolver solver(spec, CatalogOptions{});

      for (std::size_t o = 0; o < spec.object_count(); ++o) {
        const std::vector<double> access = solver.object_access_cost(o, prices);
        std::size_t best = 0;
        double best_cost = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < n; ++i) {
          const double cost =
              access[i] + spec.k * delay.sojourn(spec.rate[o], spec.mu[i]);
          if (cost < best_cost) {
            best_cost = cost;
            best = i;
          }
        }
        std::vector<double> expected(n, 0.0);
        expected[best] = 1.0;
        EXPECT_EQ(solver.object_start(o, prices), expected)
            << "object " << o;
        for (std::size_t i = best + 1; i < n; ++i) {
          ties += source[i] == source[best] ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(ties, 0u);  // a later copy of the winner lost on index
}

}  // namespace
