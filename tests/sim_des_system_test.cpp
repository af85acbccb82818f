// Tests for the incremental simulation engine: windowing semantics,
// mid-run rewiring, and consistency with the batch run_des wrapper.
#include "sim/des_system.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/single_file.hpp"
#include "queueing/delay.hpp"
#include "util/contracts.hpp"

namespace {

namespace core = fap::core;
namespace sim = fap::sim;

sim::DesConfig paper_config(const std::vector<double>& x) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  sim::DesConfig config = sim::des_config_for(model, x);
  config.seed = 321;
  return config;
}

TEST(DesSystem, AdvanceUntilMovesTheClockExactly) {
  sim::DesSystem system(paper_config({0.25, 0.25, 0.25, 0.25}));
  EXPECT_DOUBLE_EQ(system.now(), 0.0);
  system.advance_until(123.5);
  EXPECT_DOUBLE_EQ(system.now(), 123.5);
  EXPECT_THROW(system.advance_until(100.0), fap::util::PreconditionError);
}

TEST(DesSystem, AdvanceCompletionsCountsCompletions) {
  sim::DesSystem system(paper_config({0.25, 0.25, 0.25, 0.25}));
  system.reset_window();
  const std::size_t made = system.advance_completions(5000);
  EXPECT_EQ(made, 5000u);
  // All completions after the window opened at t=0 are measured.
  EXPECT_EQ(system.window().completions, 5000u);
}

TEST(DesSystem, WindowExcludesPreWindowArrivals) {
  sim::DesSystem system(paper_config({0.25, 0.25, 0.25, 0.25}));
  system.advance_until(200.0);
  system.reset_window();
  system.advance_completions(2000);
  // Accesses that arrived before t=200 but completed after must not be
  // measured: every measured sojourn is consistent with a post-200
  // arrival (weak check: window has fewer completions than advanced).
  EXPECT_LE(system.window().completions, 2000u);
  EXPECT_GT(system.window().completions, 1500u);
}

TEST(DesSystem, CompletionAttributedWindowsPartitionAllCompletions) {
  // With window_by_completion, a reset never loses the in-flight tail:
  // each completion lands in exactly the window it departs in, so the
  // window counts sum to the completions advanced — the attribution rule
  // cumulative trace-serving statistics rely on.
  sim::DesConfig config = paper_config({0.25, 0.25, 0.25, 0.25});
  config.window_by_completion = true;
  sim::DesSystem system(std::move(config));
  system.reset_window();
  std::size_t advanced = 0;
  std::size_t counted = 0;
  for (int w = 0; w < 4; ++w) {
    advanced += system.advance_completions(1500);
    counted += system.window().completions;
    system.reset_window();
  }
  EXPECT_EQ(advanced, 4u * 1500u);
  EXPECT_EQ(counted, advanced);
}

TEST(DesSystem, WindowStatsMatchTheory) {
  sim::DesConfig config;
  config.lambda = {0.75};
  config.mu = {1.5};
  config.routing = {{1.0}};
  config.comm_cost = {{0.0}};
  config.seed = 99;
  sim::DesSystem system(config);
  system.advance_until(500.0);
  system.reset_window();
  system.advance_completions(150000);
  const sim::WindowStats& window = system.window();
  EXPECT_NEAR(window.sojourn.mean(),
              fap::queueing::mm1_sojourn_time(0.75, 1.5),
              0.06 * fap::queueing::mm1_sojourn_time(0.75, 1.5));
  EXPECT_NEAR(window.node[0].utilization, 0.5, 0.02);
  EXPECT_NEAR(window.node[0].observed_arrival_rate, 0.75, 0.03);
}

TEST(DesSystem, SetRoutingRedirectsTraffic) {
  // Start with everything served at node 0; rewire to node 2 mid-run and
  // verify the new window's arrivals follow.
  sim::DesSystem system(paper_config({1.0, 0.0, 0.0, 0.0}));
  system.advance_until(500.0);
  system.reset_window();
  system.advance_completions(20000);
  EXPECT_GT(system.window().node[0].observed_arrival_rate, 0.9);

  std::vector<std::vector<double>> new_routing(
      4, std::vector<double>{0.0, 0.0, 1.0, 0.0});
  system.set_routing(new_routing);
  system.advance_until(system.now() + 100.0);  // drain the old regime
  system.reset_window();
  system.advance_completions(20000);
  EXPECT_GT(system.window().node[2].observed_arrival_rate, 0.9);
  EXPECT_LT(system.window().node[0].observed_arrival_rate, 0.01);
}

TEST(DesSystem, RewiringReducesDelayWhenLoadIsSpread) {
  // Concentrated allocation queues badly; spreading it mid-run must
  // reduce the measured sojourn in the next window.
  sim::DesSystem system(paper_config({0.0, 0.0, 0.0, 1.0}));
  system.advance_until(300.0);
  system.reset_window();
  system.advance_completions(40000);
  const double concentrated_sojourn = system.window().sojourn.mean();

  const core::SingleFileModel model(core::make_paper_ring_problem());
  system.set_routing(
      sim::des_config_for(model, {0.25, 0.25, 0.25, 0.25}).routing);
  system.advance_until(system.now() + 200.0);
  system.reset_window();
  system.advance_completions(40000);
  const double spread_sojourn = system.window().sojourn.mean();

  // Theory: 1/(μ-λ) = 2.0 vs 1/(μ-λ/4) = 0.8.
  EXPECT_GT(concentrated_sojourn, 1.7);
  EXPECT_LT(spread_sojourn, 1.0);
}

TEST(DesSystem, UtilizationIncludesInProgressService) {
  // A deterministic heavy service keeps the server busy; utilization must
  // count the in-progress service at window inspection time.
  sim::DesConfig config;
  config.lambda = {0.9};
  config.mu = {1.0};
  config.routing = {{1.0}};
  config.comm_cost = {{0.0}};
  config.seed = 5;
  sim::DesSystem system(config);
  system.advance_until(1000.0);
  system.reset_window();
  system.advance_until(2000.0);
  EXPECT_NEAR(system.window().node[0].utilization, 0.9, 0.05);
}

TEST(DesSystem, LogRespectsWindows) {
  sim::DesConfig config = paper_config({0.25, 0.25, 0.25, 0.25});
  config.record_log = true;
  sim::DesSystem system(config);
  system.advance_until(100.0);
  system.reset_window();
  system.advance_completions(500);
  const std::size_t first_window = system.window().log.size();
  EXPECT_GT(first_window, 0u);
  system.reset_window();
  EXPECT_TRUE(system.window().log.empty());
}

TEST(DesSystem, MoveSemantics) {
  sim::DesSystem a(paper_config({0.25, 0.25, 0.25, 0.25}));
  a.advance_until(50.0);
  sim::DesSystem b(std::move(a));
  EXPECT_DOUBLE_EQ(b.now(), 50.0);
  b.advance_until(60.0);
  EXPECT_DOUBLE_EQ(b.now(), 60.0);
}

TEST(DesSystem, RejectsBadRewiring) {
  sim::DesSystem system(paper_config({0.25, 0.25, 0.25, 0.25}));
  EXPECT_THROW(system.set_routing({{1.0}}), fap::util::PreconditionError);
  EXPECT_THROW(system.set_routing(std::vector<std::vector<double>>(
                   4, std::vector<double>{0.5, 0.0, 0.0, 0.0})),
               fap::util::PreconditionError);
}

TEST(DesSystem, ExhaustedEventBudgetFailsLoudly) {
  // With every node failed no completion can be made: the engine spends
  // its event budget (kEventBudgetPerCompletion * count +
  // kEventBudgetFloor, ~10^6 events here) and then fails loudly, via
  // InvariantError, instead of spinning forever.
  sim::DesSystem system(paper_config({0.25, 0.25, 0.25, 0.25}));
  system.advance_until(50.0);
  for (std::size_t i = 0; i < 4; ++i) {
    system.set_node_failed(i, true);
  }
  EXPECT_THROW(system.advance_completions(1), fap::util::InvariantError);
}

// Open-loop engine over n unit-rate nodes: traffic enters only through
// inject_access; every cross-node access costs 1.
sim::DesConfig open_loop_config(std::size_t n) {
  sim::DesConfig config;
  config.open_loop = true;
  config.lambda.assign(n, 0.0);
  config.mu.assign(n, 1.0);
  config.routing.assign(n, std::vector<double>(n, 0.0));
  config.comm_cost.assign(n, std::vector<double>(n, 1.0));
  for (std::size_t i = 0; i < n; ++i) {
    config.routing[i][i] = 1.0;
    config.comm_cost[i][i] = 0.0;
  }
  config.seed = 321;
  return config;
}

TEST(DesSystem, InjectAccessRejectsNonFiniteInputs) {
  // A non-finite time or stall would schedule an arrival that never (or
  // nonsensically) happens, and a non-finite comm would flow straight
  // into WindowStats::comm_cost. Each is rejected before the engine
  // changes, so it stays usable afterwards.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  sim::DesSystem system(open_loop_config(2));
  system.inject_access(1.0, 0, 1, 2.0);
  using fap::util::PreconditionError;
  EXPECT_THROW(system.inject_access(kInf, 0, 1, 2.0), PreconditionError);
  EXPECT_THROW(system.inject_access(kNaN, 0, 1, 2.0), PreconditionError);
  EXPECT_THROW(system.inject_access(2.0, 0, 1, kNaN), PreconditionError);
  EXPECT_THROW(system.inject_access(2.0, 0, 1, kInf), PreconditionError);
  EXPECT_THROW(system.inject_access(2.0, 0, 1, -kInf), PreconditionError);
  EXPECT_THROW(system.inject_access(2.0, 0, 1, 2.0, kInf),
               PreconditionError);
  EXPECT_THROW(system.inject_access(2.0, 0, 1, 2.0, kNaN),
               PreconditionError);
  system.inject_access(3.0, 1, 0, 4.0, 0.5);
  // Only the two accepted accesses exist, and both are served.
  EXPECT_EQ(system.advance_completions(10), 2u);
  const sim::WindowStats& window = system.window();
  EXPECT_EQ(window.completions, 2u);
  EXPECT_EQ(window.failed_accesses, 0u);
  EXPECT_EQ(window.comm_cost.mean(), 3.0);
  EXPECT_TRUE(std::isfinite(window.response_time.mean()));
  EXPECT_GE(window.response_time.min(), 0.0);
}

}  // namespace
