// Tests for trace-driven serving (serve/trace_server.hpp): generator
// determinism and distribution mechanics, mode equivalences, migration
// completion, and the headline acceptance property — under popularity
// drift, online reallocation beats both the static placement and an LRU
// cache baseline on mean and tail delay.
#include "serve/trace_server.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "net/generators.hpp"
#include "util/contracts.hpp"

namespace {

using fap::serve::FlashCrowd;
using fap::serve::ServeMode;
using fap::serve::TraceGenerator;
using fap::serve::TraceRequest;
using fap::serve::TraceServeOptions;
using fap::serve::TraceServeResult;
using fap::serve::TraceServer;
using fap::serve::TraceWorkload;

TraceWorkload small_workload() {
  TraceWorkload workload;
  workload.records = 2000;
  workload.total_rate = 2.4;  // 60% of 4 nodes at mu = 1
  workload.zipf_s = 0.9;
  workload.epoch_requests = 4096;
  workload.seed = 42;
  return workload;
}

TEST(TraceGenerator, EpochsAreSizedAndStrictlyOrdered) {
  TraceGenerator generator(small_workload(), 4);
  double last = 0.0;
  std::size_t total = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    const std::vector<TraceRequest>& batch = generator.next_epoch(100000);
    ASSERT_EQ(batch.size(), 4096u);
    for (const TraceRequest& request : batch) {
      EXPECT_GT(request.time, last);
      last = request.time;
      EXPECT_LT(request.origin, 4u);
      EXPECT_LT(request.record, 2000u);
      ++total;
    }
  }
  // A partial epoch when fewer requests remain.
  EXPECT_EQ(generator.next_epoch(10).size(), 10u);
  EXPECT_EQ(total, 3u * 4096u);
}

TEST(TraceGenerator, SameSeedSameTrace) {
  TraceGenerator a(small_workload(), 4);
  TraceGenerator b(small_workload(), 4);
  for (int epoch = 0; epoch < 2; ++epoch) {
    const std::vector<TraceRequest>& ba = a.next_epoch(4096);
    const std::vector<TraceRequest>& bb = b.next_epoch(4096);
    ASSERT_EQ(ba.size(), bb.size());
    for (std::size_t i = 0; i < ba.size(); ++i) {
      ASSERT_EQ(ba[i].time, bb[i].time);
      ASSERT_EQ(ba[i].origin, bb[i].origin);
      ASSERT_EQ(ba[i].record, bb[i].record);
      ASSERT_EQ(ba[i].update, bb[i].update);
    }
  }
}

TEST(TraceGenerator, PopularityIsNormalizedAndDriftRotatesIt) {
  TraceWorkload workload = small_workload();
  workload.drift_rate = 1.0;  // one record rank per unit time
  TraceGenerator generator(workload, 4);
  const std::vector<double> p0 = generator.popularity();
  double sum = 0.0;
  for (const double p : p0) {
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Record 0 is the rank-0 (hottest) record at t = 0.
  EXPECT_GT(p0[0], p0[1]);

  // Advance far enough that the rank shift is large, then check the
  // rotation: record r now carries the base mass of rank (r + shift).
  // Popularity is refreshed at each epoch's START, so the shift in force
  // after the last call derives from now() BEFORE that call.
  for (int epoch = 0; epoch < 7; ++epoch) {
    generator.next_epoch(4096);
  }
  const double refresh_time = generator.now();
  generator.next_epoch(4096);
  const std::size_t shift =
      static_cast<std::size_t>(workload.drift_rate * refresh_time) % 2000;
  ASSERT_GT(shift, 100u);
  const std::vector<double>& pt = generator.popularity();
  EXPECT_DOUBLE_EQ(pt[(2000 - shift) % 2000], p0[0]);
  EXPECT_LT(pt[0], p0[0]);  // record 0 demoted by `shift` ranks
}

TEST(TraceGenerator, FlashCrowdBoostsItsRecordsWhileActive) {
  TraceWorkload workload = small_workload();
  FlashCrowd crowd;
  crowd.start = 0.0;
  crowd.end = 1e18;  // active from the first epoch on
  crowd.first_record = 1500;
  crowd.last_record = 1600;
  crowd.boost = 50.0;
  workload.flash_crowds.push_back(crowd);
  TraceGenerator boosted(workload, 4);
  TraceGenerator plain(small_workload(), 4);
  boosted.next_epoch(1);
  plain.next_epoch(1);
  const std::vector<double>& pb = boosted.popularity();
  const std::vector<double>& pp = plain.popularity();
  // Boosted records gain mass, everything else loses it (renormalization).
  EXPECT_GT(pb[1500], pp[1500] * 10.0);
  EXPECT_LT(pb[0], pp[0]);
  double sum = 0.0;
  for (const double p : pb) {
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(TraceGenerator, RejectsBadWorkloads) {
  TraceWorkload bad = small_workload();
  bad.total_rate = 0.0;
  EXPECT_THROW(TraceGenerator(bad, 4), fap::util::PreconditionError);
  bad = small_workload();
  bad.update_fraction = 1.5;
  EXPECT_THROW(TraceGenerator(bad, 4), fap::util::PreconditionError);
  bad = small_workload();
  bad.origin_mix = {0.5, 0.5};  // 2 weights, 4 nodes
  EXPECT_THROW(TraceGenerator(bad, 4), fap::util::PreconditionError);
  bad = small_workload();
  bad.flash_crowds.push_back({0.0, 1.0, 1900, 2100, 10.0});
  EXPECT_THROW(TraceGenerator(bad, 4), fap::util::PreconditionError);
}

TEST(TraceServer, ServeIsDeterministic) {
  const fap::net::Topology ring = fap::net::make_ring(4);
  TraceWorkload workload = small_workload();
  workload.drift_rate = 0.02;
  workload.update_fraction = 0.15;
  TraceServeOptions options;
  options.mode = ServeMode::kOnline;
  options.estimation_epochs = 2;
  options.hysteresis = 0.25;
  const TraceServeResult a = TraceServer(ring, workload, options).serve(40000);
  const TraceServeResult b = TraceServer(ring, workload, options).serve(40000);
  ASSERT_EQ(a.requests_injected, 40000u);
  ASSERT_EQ(a.completions, b.completions);
  ASSERT_EQ(a.delay.count(), b.delay.count());
  ASSERT_EQ(a.delay.mean(), b.delay.mean());
  ASSERT_EQ(a.delay_hist.quantile(0.99), b.delay_hist.quantile(0.99));
  ASSERT_EQ(a.comm.mean(), b.comm.mean());
  ASSERT_EQ(a.reallocations, b.reallocations);
  ASSERT_EQ(a.migrated_records, b.migrated_records);
  ASSERT_EQ(a.stalled_requests, b.stalled_requests);
  ASSERT_EQ(a.span, b.span);
}

// Without drift the hysteresis test never fires (the threshold sits above
// the node-share sampling-noise floor), so online mode routes every
// request exactly like static mode: same completions, same histograms.
// (Means are merged from per-window accumulators in online mode, so they
// agree to rounding, not bitwise.)
TEST(TraceServer, WithoutDriftOnlineEqualsStatic) {
  const fap::net::Topology ring = fap::net::make_ring(4);
  const TraceWorkload workload = small_workload();  // drift_rate = 0
  TraceServeOptions options;
  options.estimation_epochs = 2;
  // Per-node access shares over an 8192-request window have sampling
  // noise of ~0.01 TV; keep the threshold well above it so noise alone
  // cannot trigger a re-solve.
  options.hysteresis = 0.05;
  options.mode = ServeMode::kStatic;
  const fap::net::Topology ring2 = fap::net::make_ring(4);
  TraceServer static_server(ring, workload, options);
  options.mode = ServeMode::kOnline;
  TraceServer online_server(ring2, workload, options);
  const TraceServeResult s = static_server.serve(40000);
  const TraceServeResult o = online_server.serve(40000);
  EXPECT_EQ(o.reallocations, 0u);
  EXPECT_EQ(o.migrated_records, 0u);
  EXPECT_EQ(o.stalled_requests, 0u);
  // Completion-time window attribution: nothing is dropped in either
  // mode, and the identically-routed runs count identical completions.
  ASSERT_EQ(s.completions, s.requests_injected);
  ASSERT_EQ(o.completions, s.completions);
  ASSERT_EQ(o.delay.count(), s.delay.count());
  // Histogram quantiles are computed from integer bucket counts, so they
  // match bitwise; the means are merged from per-window accumulators in
  // online mode and agree only to accumulation rounding.
  ASSERT_EQ(o.delay_hist.quantile(0.5), s.delay_hist.quantile(0.5));
  ASSERT_EQ(o.delay_hist.quantile(0.999), s.delay_hist.quantile(0.999));
  EXPECT_NEAR(o.delay.mean(), s.delay.mean(), 1e-9 * s.delay.mean());
  EXPECT_NEAR(o.comm.mean(), s.comm.mean(), 1e-9 * s.comm.mean());
  EXPECT_EQ(online_server.current_layout().node_of(0),
            online_server.initial_layout().node_of(0));
}

// The headline acceptance property: under sustained popularity drift the
// online reallocation mode beats BOTH the static placement and the LRU
// cache baseline on mean and p99 delay.
TEST(TraceServer, UnderDriftOnlineBeatsStaticAndLruOnMeanAndTail) {
  const fap::net::Topology ring = fap::net::make_ring(4);
  TraceWorkload workload = small_workload();
  // The rank rotation displaces ~17 records (~0.1 TV) per estimation
  // window — fast enough that the t = 0 placement degrades badly over
  // the run's ~500-record total shift, slow enough that per-window
  // re-solves can track it.
  workload.drift_rate = 0.005;
  workload.update_fraction = 0.2;
  TraceServeOptions options;
  options.estimation_epochs = 2;
  options.hysteresis = 0.05;
  options.cooldown_windows = 1;
  options.migration_bandwidth = 2000.0;

  auto run = [&](ServeMode mode) {
    TraceServeOptions o = options;
    o.mode = mode;
    return TraceServer(ring, workload, o).serve(240000);
  };
  const TraceServeResult st = run(ServeMode::kStatic);
  const TraceServeResult on = run(ServeMode::kOnline);
  const TraceServeResult lru = run(ServeMode::kLru);

  // No mode ever drops a request from its statistics.
  EXPECT_EQ(st.completions, st.requests_injected);
  EXPECT_EQ(on.completions, on.requests_injected);
  EXPECT_EQ(lru.completions, lru.requests_injected);

  EXPECT_GE(on.reallocations, 2u);
  EXPECT_GT(on.migrated_records, 0u);
  EXPECT_GT(lru.cache_hits, 0u);
  EXPECT_GT(lru.cache_invalidations, 0u);

  EXPECT_LT(on.delay.mean(), st.delay.mean());
  EXPECT_LT(on.delay.mean(), lru.delay.mean());
  EXPECT_LT(on.delay_hist.quantile(0.99), st.delay_hist.quantile(0.99));
  EXPECT_LT(on.delay_hist.quantile(0.99), lru.delay_hist.quantile(0.99));
}

// A forced quick migration: reallocation moves the deployed layout, and
// requests landing inside the in-flight wave are stalled and counted.
TEST(TraceServer, MigrationMovesTheLayoutAndAccountsStalls) {
  const fap::net::Topology ring = fap::net::make_ring(4);
  TraceWorkload workload = small_workload();
  workload.drift_rate = 0.1;  // fast drift forces early re-solves
  TraceServeOptions options;
  options.mode = ServeMode::kOnline;
  options.estimation_epochs = 2;
  options.hysteresis = 0.05;
  options.cooldown_windows = 0;
  // Slow migration: waves stay in flight long enough for live requests
  // to land inside them.
  options.migration_bandwidth = 10.0;
  TraceServer server(ring, workload, options);
  const TraceServeResult result = server.serve(120000);
  ASSERT_GE(result.reallocations, 1u);
  EXPECT_GT(result.migrated_records, 0u);
  EXPECT_GE(result.migration_waves, 1u);
  EXPECT_GT(result.stalled_requests, 0u);
  // The deployed layout actually moved off the initial one.
  const fap::fs::FragmentMap& initial = server.initial_layout();
  const fap::fs::FragmentMap& current = server.current_layout();
  ASSERT_EQ(current.record_count(), initial.record_count());
  bool moved = false;
  for (std::size_t r = 0; r < current.record_count() && !moved; ++r) {
    moved = current.node_of(r) != initial.node_of(r);
  }
  EXPECT_TRUE(moved);
}

// Every injected request is eventually served: the passive modes keep a
// single stats window for the whole run, so completions match injections
// EXACTLY and nothing is ever counted as failed.
TEST(TraceServer, AccountingIsConsistent) {
  const fap::net::Topology ring = fap::net::make_ring(4);
  TraceServeOptions options;
  options.mode = ServeMode::kLru;
  options.estimation_epochs = 2;
  TraceServer server(ring, small_workload(), options);
  const TraceServeResult result = server.serve(40000);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.completions, result.requests_injected);
  EXPECT_EQ(result.delay.count(), result.completions);
  EXPECT_GT(result.hit_rate(), 0.0);
  EXPECT_GT(result.external_traffic(), 0.0);
  // Cache bookkeeping only counts remote-home reads.
  EXPECT_GT(result.cache_hits + result.cache_misses, 0u);
}

// Pins the LRU policy's outputs bitwise. Hits, misses and invalidations
// depend on the exact recency order and eviction victim, and every delay
// depends on where each read was served, so any change to the cache's
// bookkeeping that alters its order shows up here. cache_fraction =
// 1/records gives capacity 1: every insert evicts.
TEST(TraceServer, LruOutputsArePinned) {
  struct Pinned {
    double cache_fraction;
    std::size_t hits;
    std::size_t misses;
    std::size_t invalidations;
    std::size_t completions;
    std::size_t served_at_origin;
    double mean_delay;
    double mean_comm;
    double p99_delay;
  };
  const Pinned pins[] = {
      {0.05, 12179, 25975, 8869, 60000, 27186, 0x1.f77c1fcc8fe8dp+9,
       0x1.7571bb75d4087p-1, 0x1.39b1997f338a3p+12},
      {1.0 / 5000.0, 417, 37737, 316, 60000, 15424, 0x1.6b3cc77924fbbp+11,
       0x1.fb2dbd1942383p-1, 0x1.60916f13b7b25p+13},
  };
  const fap::net::Topology ring = fap::net::make_ring(4);
  TraceWorkload workload = small_workload();
  workload.records = 5000;
  workload.drift_rate = 0.005;
  workload.update_fraction = 0.15;
  for (const Pinned& pin : pins) {
    TraceServeOptions options;
    options.mode = ServeMode::kLru;
    options.cache_fraction = pin.cache_fraction;
    const TraceServeResult result =
        TraceServer(ring, workload, options).serve(60000);
    EXPECT_EQ(result.cache_hits, pin.hits);
    EXPECT_EQ(result.cache_misses, pin.misses);
    EXPECT_EQ(result.cache_invalidations, pin.invalidations);
    EXPECT_EQ(result.completions, pin.completions);
    EXPECT_EQ(result.served_at_origin, pin.served_at_origin);
    EXPECT_EQ(result.delay.mean(), pin.mean_delay);
    EXPECT_EQ(result.comm.mean(), pin.mean_comm);
    EXPECT_EQ(result.delay_hist.quantile(0.99), pin.p99_delay);
  }
}

// Pins kOnline serving with live migration and store-and-forward transit
// bitwise. Slow migration waves stall many reads (each stall injects its
// access out of time order), and per-route hop latency reorders arrivals
// further, so the engine's out-of-order injection path runs throughout;
// any change to how injected arrivals are ordered against each other or
// against departures shows up in these delays.
TEST(TraceServer, OnlineStallOutputsArePinned) {
  const fap::net::Topology ring = fap::net::make_ring(6);
  TraceWorkload workload = small_workload();
  workload.records = 5000;
  workload.total_rate = 3.6;  // 60% of 6 nodes at mu = 1
  workload.drift_rate = 0.001;  // ~2 records per estimation window
  workload.update_fraction = 0.15;
  TraceServeOptions options;
  options.mode = ServeMode::kOnline;
  options.estimation_epochs = 2;
  options.hysteresis = 0.05;
  options.cooldown_windows = 1;
  options.migration_bandwidth = 10.0;
  options.max_transfers_per_node = 1;
  options.hop_latency = 0.25;
  const TraceServeResult result =
      TraceServer(ring, workload, options).serve(120000);
  EXPECT_EQ(result.requests_injected, 120000u);
  EXPECT_EQ(result.completions, 120000u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.stalled_requests, 651u);
  EXPECT_EQ(result.migrated_records, 10444u);
  EXPECT_EQ(result.migration_waves, 20u);
  EXPECT_EQ(result.reallocations, 10u);
  EXPECT_EQ(result.delay.mean(), 0x1.fb211ba80f7d2p+2);
  EXPECT_EQ(result.delay_hist.quantile(0.99), 0x1.254ccb1ba8cedp+7);
  EXPECT_EQ(result.comm.mean(), 0x1.80d95c6edd748p+0);
}

}  // namespace
