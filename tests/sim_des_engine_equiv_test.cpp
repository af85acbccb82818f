// Golden-trace equivalence: the rewritten DES event engine (DesSystem —
// slab job pool, flat 4-ary event heap, ring-buffer FIFOs) must be
// bit-identical, per seed, to the pre-rewrite engine kept verbatim as
// DesReferenceSystem. Both engines are driven through identical scenario
// scripts and every observable — clock, completion counts, running-stat
// internals, histogram buckets, per-node counters, access logs — is
// compared with exact equality (EXPECT_EQ on doubles, deliberately: the
// contract is byte-identical traces, not tolerance agreement).
#include <algorithm>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "sim/des.hpp"
#include "sim/des_system.hpp"
#include "support/des_reference.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace fap::sim {
namespace {

using fap::testing::DesReferenceSystem;

void expect_stats_equal(const util::RunningStats& a,
                        const util::RunningStats& b, const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
  if (a.count() > 0 && b.count() > 0) {
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
  }
}

void expect_windows_equal(const WindowStats& a, const WindowStats& b) {
  expect_stats_equal(a.comm_cost, b.comm_cost, "comm_cost");
  expect_stats_equal(a.sojourn, b.sojourn, "sojourn");
  expect_stats_equal(a.response_time, b.response_time, "response_time");
  EXPECT_EQ(a.start_time, b.start_time);
  EXPECT_EQ(a.span, b.span);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.failed_accesses, b.failed_accesses);
  ASSERT_EQ(a.response_hist.bucket_count(), b.response_hist.bucket_count());
  EXPECT_EQ(a.response_hist.total(), b.response_hist.total());
  EXPECT_EQ(a.response_hist.nonfinite(), b.response_hist.nonfinite());
  for (std::size_t i = 0; i < a.response_hist.bucket_count(); ++i) {
    EXPECT_EQ(a.response_hist.count(i), b.response_hist.count(i))
        << "log histogram bucket " << i;
  }
  ASSERT_EQ(a.node.size(), b.node.size());
  for (std::size_t i = 0; i < a.node.size(); ++i) {
    expect_stats_equal(a.node[i].sojourn, b.node[i].sojourn, "node sojourn");
    EXPECT_EQ(a.node[i].arrivals, b.node[i].arrivals) << "node " << i;
    EXPECT_EQ(a.node[i].busy_time, b.node[i].busy_time) << "node " << i;
    EXPECT_EQ(a.node[i].observed_arrival_rate,
              b.node[i].observed_arrival_rate)
        << "node " << i;
    EXPECT_EQ(a.node[i].utilization, b.node[i].utilization) << "node " << i;
  }
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    EXPECT_EQ(a.log[i].source, b.log[i].source) << "log " << i;
    EXPECT_EQ(a.log[i].target, b.log[i].target) << "log " << i;
    EXPECT_EQ(a.log[i].arrival_time, b.log[i].arrival_time) << "log " << i;
    EXPECT_EQ(a.log[i].service_start, b.log[i].service_start) << "log " << i;
    EXPECT_EQ(a.log[i].departure_time, b.log[i].departure_time)
        << "log " << i;
    EXPECT_EQ(a.log[i].comm_cost, b.log[i].comm_cost) << "log " << i;
  }
}

/// A moderately loaded n-node config with skewed routing and per-pair
/// costs; parameters perturbed per seed so different scenarios exercise
/// different event interleavings.
DesConfig make_config(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  DesConfig config;
  config.lambda.resize(n);
  config.mu.resize(n);
  config.routing.assign(n, std::vector<double>(n, 0.0));
  config.comm_cost.assign(n, std::vector<double>(n, 0.0));
  std::vector<double> row(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    row[i] = 0.2 + rng.uniform();
    sum += row[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    row[i] /= sum;
  }
  for (std::size_t j = 0; j < n; ++j) {
    config.lambda[j] = 0.5 + rng.uniform();
    config.routing[j] = row;
    for (std::size_t i = 0; i < n; ++i) {
      config.comm_cost[j][i] = j == i ? 0.0 : 1.0 + rng.uniform();
    }
  }
  // Load each node to roughly rho = 0.8 under the shared routing row.
  double total_lambda = 0.0;
  for (const double l : config.lambda) {
    total_lambda += l;
  }
  for (std::size_t i = 0; i < n; ++i) {
    config.mu[i] = total_lambda * row[i] / 0.8;
  }
  config.seed = seed;
  config.record_log = true;
  return config;
}

/// Drives both engines through the same script and compares after every
/// observation point.
template <typename Script>
void run_equivalence(const DesConfig& config, Script&& script) {
  DesSystem rewritten(config);
  DesReferenceSystem reference(config);
  script(rewritten, reference);
  EXPECT_EQ(rewritten.now(), reference.now());
  expect_windows_equal(rewritten.window(), reference.window());
}

TEST(DesEngineEquivalence, SteadyStateTraceMatches) {
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    SCOPED_TRACE(seed);
    run_equivalence(make_config(5, seed), [](auto& a, auto& b) {
      a.advance_until(100.0);
      b.advance_until(100.0);
      a.reset_window();
      b.reset_window();
      EXPECT_EQ(a.advance_completions(5000), b.advance_completions(5000));
      expect_windows_equal(a.window(), b.window());
      // Interleave time- and completion-driven advancement.
      a.advance_until(a.now() + 25.0);
      b.advance_until(b.now() + 25.0);
      EXPECT_EQ(a.advance_completions(777), b.advance_completions(777));
    });
  }
}

TEST(DesEngineEquivalence, MultiServerNodesMatch) {
  DesConfig config = make_config(4, 11);
  config.servers_per_node = {1, 2, 3, 4};
  for (double& mu : config.mu) {
    mu *= 0.45;  // keep rho comparable with the extra servers
  }
  run_equivalence(config, [](auto& a, auto& b) {
    a.advance_until(50.0);
    b.advance_until(50.0);
    a.reset_window();
    b.reset_window();
    EXPECT_EQ(a.advance_completions(4000), b.advance_completions(4000));
  });
}

TEST(DesEngineEquivalence, DeterministicAndGammaServiceMatch) {
  for (const ServiceDistribution service :
       {ServiceDistribution::kDeterministic, ServiceDistribution::kGamma}) {
    SCOPED_TRACE(static_cast<int>(service));
    DesConfig config = make_config(4, 3);
    config.service = service;
    config.service_scv = 2.5;
    run_equivalence(config, [](auto& a, auto& b) {
      a.advance_until(40.0);
      b.advance_until(40.0);
      a.reset_window();
      b.reset_window();
      EXPECT_EQ(a.advance_completions(3000), b.advance_completions(3000));
    });
  }
}

TEST(DesEngineEquivalence, StoreAndForwardTransitMatches) {
  DesConfig config = make_config(5, 17);
  config.hop_latency = 0.05;
  config.route_hops.assign(5, std::vector<std::size_t>(5, 0));
  for (std::size_t j = 0; j < 5; ++j) {
    for (std::size_t i = 0; i < 5; ++i) {
      config.route_hops[j][i] = j == i ? 0 : 1 + (j + i) % 3;
    }
  }
  run_equivalence(config, [](auto& a, auto& b) {
    a.advance_until(60.0);
    b.advance_until(60.0);
    a.reset_window();
    b.reset_window();
    EXPECT_EQ(a.advance_completions(3000), b.advance_completions(3000));
  });
}

TEST(DesEngineEquivalence, MidFlightRewiringMatches) {
  const DesConfig config = make_config(5, 5);
  // A second routing mix concentrating on the first two nodes.
  std::vector<std::vector<double>> rewired(
      5, {0.45, 0.45, 0.10, 0.0, 0.0});
  run_equivalence(config, [&rewired](auto& a, auto& b) {
    a.advance_until(30.0);
    b.advance_until(30.0);
    a.reset_window();
    b.reset_window();
    EXPECT_EQ(a.advance_completions(1500), b.advance_completions(1500));
    a.set_routing(rewired);
    b.set_routing(rewired);
    EXPECT_EQ(a.advance_completions(1500), b.advance_completions(1500));
    expect_windows_equal(a.window(), b.window());
    a.reset_window();
    b.reset_window();
    EXPECT_EQ(a.advance_completions(1000), b.advance_completions(1000));
  });
}

TEST(DesEngineEquivalence, FailureAndRepairTraceMatches) {
  for (const std::uint64_t seed : {2u, 13u}) {
    SCOPED_TRACE(seed);
    DesConfig config = make_config(5, seed);
    config.hop_latency = 0.02;  // in-flight arrivals hit failed nodes too
    run_equivalence(config, [](auto& a, auto& b) {
      a.advance_until(30.0);
      b.advance_until(30.0);
      a.reset_window();
      b.reset_window();
      EXPECT_EQ(a.advance_completions(1000), b.advance_completions(1000));
      // Kill two nodes mid-run (voiding their queued + in-service work),
      // keep running, then repair one and keep running again.
      a.set_node_failed(1, true);
      b.set_node_failed(1, true);
      a.set_node_failed(3, true);
      b.set_node_failed(3, true);
      expect_windows_equal(a.window(), b.window());
      EXPECT_EQ(a.advance_completions(1000), b.advance_completions(1000));
      a.set_node_failed(1, false);
      b.set_node_failed(1, false);
      EXPECT_EQ(a.advance_completions(1000), b.advance_completions(1000));
      expect_windows_equal(a.window(), b.window());
      a.set_node_failed(3, false);
      b.set_node_failed(3, false);
      EXPECT_EQ(a.advance_completions(500), b.advance_completions(500));
    });
  }
}

TEST(DesEngineEquivalence, RandomizedScenarioScriptsMatch) {
  // Randomized interleavings of every operation, driven by a script RNG
  // shared between both engines.
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    SCOPED_TRACE(seed);
    DesConfig config = make_config(6, seed);
    config.hop_latency = seed % 2 == 0 ? 0.01 : 0.0;
    run_equivalence(config, [seed](auto& a, auto& b) {
      util::Rng script(seed * 977 + 1);
      std::vector<bool> down(6, false);
      a.advance_until(20.0);
      b.advance_until(20.0);
      a.reset_window();
      b.reset_window();
      for (int step = 0; step < 30; ++step) {
        const double pick = script.uniform();
        if (pick < 0.4) {
          const std::size_t count =
              100 + static_cast<std::size_t>(script.uniform() * 400.0);
          EXPECT_EQ(a.advance_completions(count),
                    b.advance_completions(count));
        } else if (pick < 0.7) {
          const double dt = script.uniform() * 5.0;
          a.advance_until(a.now() + dt);
          b.advance_until(b.now() + dt);
        } else if (pick < 0.85) {
          // Toggle a node, but never let every node go down.
          const std::size_t node =
              static_cast<std::size_t>(script.uniform() * 6.0) % 6;
          std::size_t up = 0;
          for (const bool d : down) {
            up += d ? 0 : 1;
          }
          if (down[node] || up > 2) {
            down[node] = !down[node];
            a.set_node_failed(node, down[node]);
            b.set_node_failed(node, down[node]);
          }
        } else if (pick < 0.95) {
          expect_windows_equal(a.window(), b.window());
        } else {
          a.reset_window();
          b.reset_window();
        }
      }
    });
  }
}

TEST(DesEngineEquivalence, RestartMatchesFreshConstruction) {
  // restart() must be bit-equivalent to constructing a new engine — this
  // is what lets run_des_replications recycle one engine per worker.
  const DesConfig first = make_config(5, 31);
  DesConfig second = make_config(3, 32);  // different shape on purpose
  second.servers_per_node = {2, 1, 2};
  second.hop_latency = 0.03;

  DesSystem recycled(first);
  recycled.advance_until(80.0);
  recycled.reset_window();
  recycled.advance_completions(2000);
  recycled.set_node_failed(2, true);  // leave mid-run state behind
  recycled.advance_completions(500);

  recycled.restart(second);
  DesSystem fresh(second);
  EXPECT_EQ(recycled.now(), fresh.now());
  recycled.advance_until(40.0);
  fresh.advance_until(40.0);
  recycled.reset_window();
  fresh.reset_window();
  EXPECT_EQ(recycled.advance_completions(3000),
            fresh.advance_completions(3000));
  expect_windows_equal(recycled.window(), fresh.window());

  // And restarting back to the first config replays the original run.
  recycled.restart(first);
  DesSystem baseline(first);
  recycled.advance_until(80.0);
  baseline.advance_until(80.0);
  recycled.reset_window();
  baseline.reset_window();
  EXPECT_EQ(recycled.advance_completions(2000),
            baseline.advance_completions(2000));
  expect_windows_equal(recycled.window(), baseline.window());
}

TEST(DesEngineEquivalence, RunDesEngineOverloadMatchesPlainRunDes) {
  DesConfig config = make_config(4, 41);
  config.warmup_time = 50.0;
  config.measured_accesses = 5000;
  const DesResult plain = run_des(config);

  DesSystem engine(make_config(5, 42));  // warm the engine on other work
  engine.advance_until(100.0);
  const DesResult reused = run_des(engine, config);

  expect_stats_equal(plain.comm_cost, reused.comm_cost, "comm_cost");
  expect_stats_equal(plain.sojourn, reused.sojourn, "sojourn");
  expect_stats_equal(plain.response_time, reused.response_time,
                     "response_time");
  EXPECT_EQ(plain.measured_cost, reused.measured_cost);
  EXPECT_EQ(plain.simulated_time, reused.simulated_time);
  ASSERT_EQ(plain.log.size(), reused.log.size());
}

/// An open-loop trace-serving config: nothing self-generates, every
/// access enters through inject_access, and windows attribute by
/// completion, as in serve::TraceServer.
DesConfig make_open_loop_config(std::size_t n, std::uint64_t seed) {
  DesConfig config = make_config(n, seed);
  config.open_loop = true;
  config.lambda.assign(n, 0.0);
  config.window_by_completion = true;
  return config;
}

/// Knobs of one seeded open-loop script.
struct TraceScript {
  std::size_t epochs = 6;
  std::size_t epoch_requests = 400;
  /// Offered load per unit service capacity (targets are drawn in
  /// proportion to mu, so every node runs near this utilization).
  double load = 0.7;
  /// Chance that an access stalls for extra_latency (a migration stall),
  /// which injects it out of time order.
  double stall_probability = 0.0;
  /// Inter-arrival gaps and stalls on a 1/8 grid, so injected arrivals
  /// tie each other — and, with deterministic dyadic service, pending
  /// departures — exactly.
  bool dyadic = false;
  /// Toggle a node between epochs (never all of them), so arrivals
  /// still pending reach failed nodes.
  bool failures = false;
  /// Split each epoch's advance into advance_completions /
  /// advance_until / reset_window / window() steps.
  bool interleave = false;
};

/// Drives both engines through `epochs` injected epochs of in-order
/// request times, comparing full windows after every epoch and after the
/// final drain.
void run_trace_script(DesSystem& a, DesReferenceSystem& b,
                      const DesConfig& config, const TraceScript& script,
                      std::uint64_t seed) {
  const std::size_t n = config.mu.size();
  util::Rng rng(seed);
  double mu_total = 0.0;
  for (const double mu : config.mu) {
    mu_total += mu;
  }
  const double rate = script.load * mu_total;
  std::vector<bool> down(n, false);
  for (std::size_t epoch = 0; epoch < script.epochs; ++epoch) {
    double time = a.now();
    for (std::size_t r = 0; r < script.epoch_requests; ++r) {
      time += script.dyadic ? static_cast<double>(rng.uniform_index(3)) / 8.0
                            : rng.exponential(rate);
      const std::size_t source = rng.uniform_index(n);
      double pick = rng.uniform() * mu_total;
      std::size_t target = 0;
      while (target + 1 < n && pick >= config.mu[target]) {
        pick -= config.mu[target];
        ++target;
      }
      double extra = 0.0;
      if (rng.uniform() < script.stall_probability) {
        extra = script.dyadic
                    ? static_cast<double>(rng.uniform_index(16)) / 8.0
                    : rng.uniform() * 50.0 / rate;
      }
      const double comm = config.comm_cost[source][target];
      a.inject_access(time, source, target, comm, extra);
      b.inject_access(time, source, target, comm, extra);
    }
    if (script.interleave) {
      for (int step = 0; step < 4; ++step) {
        const double pick = rng.uniform();
        if (pick < 0.4) {
          // Stopping right after the count-th completion exposes the
          // order of events tied with it (the arrival counters differ).
          const std::size_t count = 1 + rng.uniform_index(150);
          EXPECT_EQ(a.advance_completions(count),
                    b.advance_completions(count));
          expect_windows_equal(a.window(), b.window());
        } else if (pick < 0.7) {
          const double until =
              std::min(time, a.now() + rng.uniform() * 40.0 / rate);
          if (until >= a.now()) {
            a.advance_until(until);
            b.advance_until(until);
          }
        } else if (pick < 0.85) {
          a.reset_window();
          b.reset_window();
        } else {
          expect_windows_equal(a.window(), b.window());
        }
        EXPECT_EQ(a.now(), b.now());
      }
    }
    const double until = std::max(time, a.now());
    a.advance_until(until);
    b.advance_until(until);
    expect_windows_equal(a.window(), b.window());
    if (script.failures) {
      const std::size_t node = rng.uniform_index(n);
      std::size_t up = 0;
      for (const bool d : down) {
        up += d ? 0 : 1;
      }
      if (down[node] || up > 1) {
        down[node] = !down[node];
        a.set_node_failed(node, down[node]);
        b.set_node_failed(node, down[node]);
      }
    }
  }
  if (config.open_loop) {
    // Drain: with no generators the engines run dry together.
    for (;;) {
      const std::size_t made = a.advance_completions(256);
      EXPECT_EQ(made, b.advance_completions(256));
      if (made == 0) {
        break;
      }
    }
  }
  EXPECT_EQ(a.now(), b.now());
  expect_windows_equal(a.window(), b.window());
}

TEST(DesEngineEquivalence, InjectedTraceMatches) {
  // The open-loop injection path TraceServer drives: epochs of in-order
  // request times injected ahead of the clock, then advanced through.
  const auto run = [](const DesConfig& config, const TraceScript& script,
                      std::uint64_t seed) {
    DesSystem rewritten(config);
    DesReferenceSystem reference(config);
    run_trace_script(rewritten, reference, config, script, seed);
  };
  {
    SCOPED_TRACE("in-order epochs");
    for (const std::uint64_t seed : {61u, 62u}) {
      run(make_open_loop_config(5, seed), TraceScript{}, seed);
    }
  }
  {
    SCOPED_TRACE("out-of-order migration stalls");
    TraceScript script;
    script.stall_probability = 0.1;
    run(make_open_loop_config(5, 63), script, 63);
  }
  {
    SCOPED_TRACE("exact time ties");
    DesConfig config = make_open_loop_config(4, 64);
    config.service = ServiceDistribution::kDeterministic;
    config.mu.assign(4, 4.0);  // service time 1/4: every event dyadic
    TraceScript script;
    script.epochs = 10;
    script.dyadic = true;
    script.stall_probability = 0.2;
    script.interleave = true;
    run(config, script, 64);
    config.hop_latency = 0.125;
    run(config, script, 65);
  }
  {
    SCOPED_TRACE("injected arrival tied with a pending departure");
    DesConfig config = make_open_loop_config(2, 73);
    config.service = ServiceDistribution::kDeterministic;
    config.mu.assign(2, 4.0);
    DesSystem a(config);
    DesReferenceSystem b(config);
    const auto both = [&a, &b](const auto& step) {
      step(a);
      step(b);
      EXPECT_EQ(a.now(), b.now());
      expect_windows_equal(a.window(), b.window());
    };
    // Stopping at the first completion shows which of two tied events
    // ran: the arrival counter of node 1 moves only if its arrival did.
    both([](auto& engine) {
      engine.inject_access(1.0, 0, 0, 0.0);
      engine.advance_until(1.1);
      // Departs at 1.25 with a seq older than the tied injection's.
      engine.inject_access(1.25, 1, 1, 0.0);
      EXPECT_EQ(engine.advance_completions(1), 1u);
      EXPECT_EQ(engine.window().node[1].arrivals, 0u);
    });
    both([](auto& engine) {
      engine.inject_access(3.0, 0, 0, 0.0);
      engine.inject_access(3.25, 1, 1, 0.0);
      // This time the departure at 3.25 is scheduled after the tied
      // injection, so the arrival pops first.
      engine.advance_until(3.1);
      EXPECT_EQ(engine.advance_completions(2), 2u);
      EXPECT_EQ(engine.window().node[1].arrivals, 2u);
    });
  }
  {
    SCOPED_TRACE("hop latency and route hops");
    DesConfig config = make_open_loop_config(5, 66);
    config.hop_latency = 0.2;
    config.route_hops.assign(5, std::vector<std::size_t>(5, 0));
    for (std::size_t j = 0; j < 5; ++j) {
      for (std::size_t i = 0; i < 5; ++i) {
        config.route_hops[j][i] = j == i ? 0 : 1 + (j + i) % 3;
      }
    }
    TraceScript script;
    script.stall_probability = 0.05;
    run(config, script, 66);
  }
  {
    SCOPED_TRACE("node failure with arrivals pending");
    DesConfig config = make_open_loop_config(5, 67);
    config.hop_latency = 0.1;
    TraceScript script;
    script.epochs = 10;
    script.stall_probability = 0.1;
    script.failures = true;
    script.interleave = true;
    run(config, script, 67);
  }
  {
    SCOPED_TRACE("interleaved advancement and windows");
    for (const std::uint64_t seed : {68u, 69u}) {
      DesConfig config = make_open_loop_config(6, seed);
      config.window_by_completion = seed % 2 == 0;
      TraceScript script;
      script.epochs = 12;
      script.epoch_requests = 150;
      script.stall_probability = 0.05;
      script.interleave = true;
      run(config, script, seed);
    }
  }
  {
    SCOPED_TRACE("injected on top of generated traffic");
    DesConfig config = make_config(5, 70);
    config.hop_latency = 0.05;
    TraceScript script;
    script.load = 0.1;
    script.stall_probability = 0.1;
    script.interleave = true;
    run(config, script, 70);
  }
  {
    SCOPED_TRACE("restart with arrivals still pending");
    const DesConfig first = make_open_loop_config(5, 71);
    DesConfig second = make_open_loop_config(4, 72);
    second.hop_latency = 0.05;
    TraceScript script;
    script.epochs = 3;
    script.stall_probability = 0.1;
    DesSystem recycled(first);
    DesReferenceSystem first_reference(first);
    run_trace_script(recycled, first_reference, first, script, 71);
    // Leave injected arrivals behind, some of them consumed.
    for (std::size_t r = 0; r < 200; ++r) {
      const double time = recycled.now() + 0.01 * static_cast<double>(r);
      recycled.inject_access(time, r % 5, (r * 3) % 5, 1.0,
                             r % 7 == 0 ? 0.5 : 0.0);
    }
    recycled.advance_until(recycled.now() + 0.5);
    recycled.restart(second);
    DesReferenceSystem fresh(second);
    EXPECT_EQ(recycled.now(), fresh.now());
    run_trace_script(recycled, fresh, second, script, 72);
  }
}

TEST(DesEngineEquivalence, ReferenceHonorsConfiguredEventBudget) {
  // The reference engine shares DesSystem's event budget constants, so a
  // system that can make no completion fails it the same loud way; the
  // dedicated budget test lives in sim_des_system_test.cpp.
  DesReferenceSystem reference(make_config(3, 51));
  for (std::size_t node = 0; node < 3; ++node) {
    reference.set_node_failed(node, true);
  }
  EXPECT_THROW(reference.advance_completions(1), util::InvariantError);
}

}  // namespace
}  // namespace fap::sim
