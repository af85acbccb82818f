// serve_drift: the A18 serve_trace default configuration at 1M requests,
// each trace served under the static, online and LRU policies.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fs/migration.hpp"
#include "net/cost_cache.hpp"
#include "net/generators.hpp"
#include "runtime/sweep.hpp"
#include "serve/trace_server.hpp"
#include "sim/des_system.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using fap::serve::ServeMode;
using fap::serve::TraceServeResult;
using fap::serve::TraceServer;

// bench/serve_trace defaults; only the request count differs (1M instead
// of 10M, so that a run can repeat the whole trace several times).
constexpr std::size_t kRequests = 1000000;
constexpr std::size_t kNodes = 16;
constexpr std::size_t kRecords = 200000;
constexpr double kMu = 1.0;
constexpr double kLoad = 0.60;
constexpr double kZipf = 0.9;
constexpr double kDriftPerWindow = 2.0;
constexpr std::size_t kFlashCrowds = 2;
constexpr double kFlashBoost = 10.0;
constexpr double kUpdateFraction = 0.15;
constexpr double kCacheFraction = 0.05;
constexpr double kHysteresis = 0.05;
constexpr std::size_t kCooldown = 1;
constexpr double kBandwidth = 2000.0;
constexpr std::size_t kMaxTransfers = 2;
constexpr std::size_t kEpoch = 65536;
constexpr std::size_t kEstimationEpochs = 4;

// Set-up takes ~50 us; 2000 repetitions take ~0.1 s.
constexpr std::size_t kSetupRepeats = 2000;

constexpr ServeMode kModes[] = {ServeMode::kStatic, ServeMode::kOnline,
                                ServeMode::kLru};
constexpr const char* kModeNames[] = {"static", "online", "lru"};
constexpr std::size_t kModeCount = std::size(kModes);

// Traces per run, each served under every policy. One trace's outcome
// is a single draw of where drift and flash crowds land: over seeds 1-5
// its pooled access cost ranged 848-1037, so the end-to-end figure
// averages several. Trace 0 is the seed's own (bench/serve_trace's trace
// at that seed); the others come from runtime::task_seed(seed, t).
constexpr std::size_t kTraces = 3;

// The engine seed TraceServer derives from the workload seed (a private
// constant of serve/trace_server.cpp). The DES replay uses it so that it
// serves exactly the static policy's event sequence; the replay checks
// that and says so on stderr if it ever drifts.
constexpr std::uint64_t kEngineSeedSalt = 0x5bf03635dcd66d67ULL;

fap::serve::TraceWorkload make_workload(std::uint64_t seed) {
  const double total_rate = static_cast<double>(kNodes) * kMu * kLoad;
  const double window_time =
      static_cast<double>(kEstimationEpochs * kEpoch) / total_rate;
  const double run_time = static_cast<double>(kRequests) / total_rate;

  fap::serve::TraceWorkload workload;
  workload.records = kRecords;
  workload.total_rate = total_rate;
  workload.zipf_s = kZipf;
  workload.drift_rate = kDriftPerWindow / window_time;
  workload.update_fraction = kUpdateFraction;
  workload.epoch_requests = kEpoch;
  workload.seed = seed;
  for (std::size_t c = 0; c < kFlashCrowds; ++c) {
    fap::serve::FlashCrowd crowd;
    crowd.start = run_time * static_cast<double>(c + 1) /
                  static_cast<double>(kFlashCrowds + 1);
    crowd.end = crowd.start + run_time / 10.0;
    crowd.first_record = (kRecords * (2 * c + 1)) / (2 * kFlashCrowds);
    crowd.last_record = std::min<std::size_t>(
        kRecords, crowd.first_record + kRecords / 200 + 1);
    crowd.boost = kFlashBoost;
    workload.flash_crowds.push_back(crowd);
  }
  return workload;
}

fap::serve::TraceServeOptions make_options(ServeMode mode) {
  fap::serve::TraceServeOptions options;
  options.mode = mode;
  options.mu = kMu;
  options.estimation_epochs = kEstimationEpochs;
  options.hysteresis = kHysteresis;
  options.cooldown_windows = kCooldown;
  options.migration_bandwidth = kBandwidth;
  options.max_transfers_per_node = kMaxTransfers;
  options.cache_fraction = kCacheFraction;
  return options;
}

std::uint64_t trace_seed(std::uint64_t seed, std::size_t trace) {
  return trace == 0 ? seed : fap::runtime::task_seed(seed, trace);
}

/// Everything set-up builds. Servers hold a reference to the topology,
/// so the whole bundle lives behind one pointer and never moves.
struct Deployment {
  Deployment(std::uint64_t seed, std::size_t traces)
      : topology(fap::net::make_ring(kNodes)) {
    for (std::size_t t = 0; t < traces; ++t) {
      workloads.push_back(make_workload(trace_seed(seed, t)));
      for (const ServeMode mode : kModes) {
        servers.push_back(std::make_unique<TraceServer>(
            topology, workloads.back(), make_options(mode)));
      }
    }
  }

  fap::net::Topology topology;
  std::vector<fap::serve::TraceWorkload> workloads;
  /// servers[t * kModeCount + m] serves trace t under kModes[m].
  std::vector<std::unique_ptr<TraceServer>> servers;
};

std::string label(std::size_t server) {
  return std::string(kModeNames[server % kModeCount]) + " (trace " +
         std::to_string(server / kModeCount) + ")";
}

/// The outputs that must repeat bit for bit across repetitions.
bool same_outcome(const TraceServeResult& a, const TraceServeResult& b) {
  return a.completions == b.completions && a.failed == b.failed &&
         a.requests_injected == b.requests_injected &&
         bits_equal(a.delay.mean(), b.delay.mean()) &&
         bits_equal(a.delay.max(), b.delay.max()) &&
         bits_equal(a.comm.mean(), b.comm.mean()) &&
         bits_equal(a.delay_hist.quantile(0.99),
                    b.delay_hist.quantile(0.99)) &&
         bits_equal(a.span, b.span) &&
         a.served_at_origin == b.served_at_origin &&
         a.reallocations == b.reallocations &&
         a.suppressed_reallocations == b.suppressed_reallocations &&
         a.failed_estimations == b.failed_estimations &&
         a.migrated_records == b.migrated_records &&
         a.migration_waves == b.migration_waves &&
         a.stalled_requests == b.stalled_requests &&
         a.cache_hits == b.cache_hits && a.cache_misses == b.cache_misses &&
         a.cache_invalidations == b.cache_invalidations;
}

/// Counts the operations of one serve and checks its accounting.
void account(const TraceServeResult& r, const std::string& mode,
             RunResult& out) {
  out.attempted += kRequests;
  const std::size_t served = std::min(r.completions, r.requests_injected);
  const std::size_t shortfall = kRequests - std::min(kRequests, served);
  out.failed += std::max(r.failed, shortfall);
  if (r.requests_injected != kRequests) {
    out.violation(mode + ": injected " +
                  std::to_string(r.requests_injected) + " of " +
                  std::to_string(kRequests) + " requests");
  }
  if (r.completions != r.requests_injected || r.failed != 0) {
    out.violation(mode + ": " + std::to_string(r.completions) +
                  " completions and " + std::to_string(r.failed) +
                  " failures for " + std::to_string(r.requests_injected) +
                  " injected requests");
  }
}

/// Mean per-request access cost (communication + k × response delay,
/// the Eq. 1 cost of a single access) over every request of every trace
/// and policy. k = 1 in this configuration.
double pooled_access_cost(const std::vector<TraceServeResult>& results) {
  double total = 0.0;
  double count = 0.0;
  for (const TraceServeResult& r : results) {
    total += r.comm.sum() + r.delay.sum();
    count += static_cast<double>(r.delay.count());
  }
  return count > 0.0 ? total / count : 0.0;
}

/// A stored trace: every request in generation order, and the generator
/// clock after each epoch (where the serving loop advances the engine).
struct StoredTrace {
  std::vector<fap::serve::TraceRequest> requests;
  std::vector<std::size_t> epoch_end;   ///< exclusive request index
  std::vector<double> epoch_now;
  double generate_s = 0.0;              ///< time inside the generator
};

/// Generates the whole trace. The generator's construction and each
/// next_epoch call are "serve.tracegen" spans; storing the requests
/// falls outside them.
StoredTrace generate_trace(const fap::serve::TraceWorkload& workload,
                           Tracer& tracer) {
  StoredTrace trace;
  trace.requests.reserve(kRequests);
  std::optional<fap::serve::TraceGenerator> generator;
  trace.generate_s += timed(&tracer, "serve.tracegen",
                            [&] { generator.emplace(workload, kNodes); });
  while (trace.requests.size() < kRequests) {
    const std::vector<fap::serve::TraceRequest>* batch = nullptr;
    trace.generate_s += timed(&tracer, "serve.tracegen", [&] {
      batch = &generator->next_epoch(kRequests - trace.requests.size());
    });
    trace.requests.insert(trace.requests.end(), batch->begin(), batch->end());
    trace.epoch_end.push_back(trace.requests.size());
    trace.epoch_now.push_back(generator->now());
  }
  return trace;
}

/// Injects the stored trace into an open-loop engine configured as the
/// static policy's, targets taken from `layout`, and drains it.
fap::sim::WindowStats replay_des(const StoredTrace& trace,
                                 const fap::fs::FragmentMap& layout,
                                 const fap::net::CostMatrix& comm,
                                 std::uint64_t seed) {
  fap::sim::DesConfig config;
  config.open_loop = true;
  config.lambda.assign(kNodes, 0.0);
  config.mu.assign(kNodes, kMu);
  config.routing.assign(kNodes, std::vector<double>(kNodes, 0.0));
  config.comm_cost.assign(kNodes, std::vector<double>(kNodes, 0.0));
  for (std::size_t i = 0; i < kNodes; ++i) {
    config.routing[i][i] = 1.0;
    for (std::size_t j = 0; j < kNodes; ++j) {
      config.comm_cost[i][j] = comm.cost(i, j);
    }
  }
  config.k = 1.0;
  config.window_by_completion = true;
  config.seed = seed ^ kEngineSeedSalt;
  fap::sim::DesSystem engine(std::move(config));
  std::size_t next = 0;
  for (std::size_t e = 0; e < trace.epoch_end.size(); ++e) {
    for (; next < trace.epoch_end[e]; ++next) {
      const fap::serve::TraceRequest& request = trace.requests[next];
      const std::size_t target = layout.node_of(request.record);
      engine.inject_access(request.time, request.origin, target,
                           comm.cost(request.origin, target));
    }
    engine.advance_until(trace.epoch_now[e]);
  }
  while (engine.advance_completions(65536) > 0) {
  }
  return engine.window();
}

/// One serve by every server, indexed like Deployment::servers.
struct Rep {
  std::vector<TraceServeResult> results;
  std::vector<double> wall_s;
};

Rep serve_all(Deployment& deployment, Tracer* tracer) {
  Rep rep;
  for (std::size_t s = 0; s < deployment.servers.size(); ++s) {
    const std::string span =
        std::string("serve.") + kModeNames[s % kModeCount];
    rep.wall_s.push_back(timed(tracer, span.c_str(), [&] {
      rep.results.push_back(deployment.servers[s]->serve(kRequests));
    }));
  }
  return rep;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) {
    total += v;
  }
  return total;
}

void check_repeat(const Rep& first, const Rep& rep, RunResult& out) {
  for (std::size_t s = 0; s < rep.results.size(); ++s) {
    if (!same_outcome(first.results[s], rep.results[s])) {
      out.violation(label(s) + ": outcome differs between repetitions");
    }
  }
}

/// Per-pass timings of the traced run, one entry per pass.
struct TracedTimes {
  std::vector<double> untraced, traced, by_mode[kModeCount], tracegen, des,
      migration;
};

void report_traced(const RunConfig& config, RunResult& out) {
  Tracer tracer("serve_drift.seed" + std::to_string(config.seed) + ".traced");

  std::unique_ptr<Deployment> deployment;
  std::shared_ptr<const fap::net::CostMatrix> comm;
  fap::net::CostMatrixCache cache;
  {
    const Tracer::Scope setup(tracer, "setup");
    const fap::net::Topology ring = fap::net::make_ring(kNodes);
    // The APSP TraceServer's constructor computes, through the cache.
    timed(&tracer, "net.apsp", [&] { comm = cache.get(ring); });
    timed(&tracer, "serve.deploy",
          [&] { deployment = std::make_unique<Deployment>(config.seed, 1); });
  }
  const TraceServer& static_server = *deployment->servers[0];
  const TraceServer& online_server = *deployment->servers[1];

  // Passes repeat while the budget allows; every timing is the median
  // over passes. A pass serves the first trace untraced and then traced
  // (the difference is the tracing overhead) and replays single layers.
  TracedTimes times;
  std::optional<Rep> first;
  StoredTrace trace;
  fap::sim::WindowStats des;
  std::vector<fap::fs::Transfer> plan;
  const auto start = std::chrono::steady_clock::now();
  double pass_s = 0.0;
  for (std::size_t pass = 0;
       another_call(start, pass, 1, pass_s, config.seconds); ++pass) {
    const auto pass_start = std::chrono::steady_clock::now();
    const Rep untraced = serve_all(*deployment, nullptr);
    if (pass == 0) {
      out.set("process.peak_rss_mb", peak_rss_mb());
    }
    Rep traced;
    {
      const Tracer::Scope serve(tracer, "serve");
      traced = serve_all(*deployment, &tracer);
    }
    for (const Rep* rep : {&untraced, static_cast<const Rep*>(&traced)}) {
      for (std::size_t s = 0; s < rep->results.size(); ++s) {
        account(rep->results[s], label(s), out);
      }
    }
    check_repeat(untraced, traced, out);
    if (first) {
      check_repeat(*first, traced, out);
    }
    times.untraced.push_back(sum(untraced.wall_s));
    times.traced.push_back(sum(traced.wall_s));
    for (std::size_t m = 0; m < kModeCount; ++m) {
      times.by_mode[m].push_back(traced.wall_s[m]);
    }

    const Tracer::Scope replay(tracer, "replay");
    trace = generate_trace(deployment->workloads[0], tracer);
    times.tracegen.push_back(trace.generate_s);
    times.des.push_back(timed(&tracer, "sim.des", [&] {
      des = replay_des(trace, static_server.initial_layout(), *comm,
                       config.seed);
    }));
    times.migration.push_back(timed(&tracer, "fs.migration", [&] {
      plan = fap::fs::plan_migration(online_server.initial_layout(),
                                     online_server.current_layout());
      // Timed for its cost; the volume below is read off the plan.
      fap::fs::schedule_waves(plan, kNodes, kMaxTransfers);
    }));
    if (!first) {
      first = std::move(traced);
    }
    pass_s = seconds_since(pass_start);
  }

  const TraceServeResult& st = first->results[0];
  const TraceServeResult& on = first->results[1];
  const TraceServeResult& lru = first->results[2];
  if (des.completions != st.completions ||
      des.response_time.mean() != st.delay.mean()) {
    std::fprintf(stderr,
                 "perfbench: note: the DES replay no longer reproduces the "
                 "static policy's events (check kEngineSeedSalt)\n");
  }

  const double tracegen_s = median(times.tracegen);
  const double des_s = median(times.des);
  const double static_s = median(times.by_mode[0]);
  const double online_s = median(times.by_mode[1]);
  const double lru_s = median(times.by_mode[2]);
  const double requests = static_cast<double>(kRequests);
  const double lookups = static_cast<double>(lru.cache_hits + lru.cache_misses);

  out.set("serve.static.req_per_s", requests / static_s);
  out.set("serve.online.req_per_s", requests / online_s);
  out.set("serve.lru.req_per_s", requests / lru_s);
  out.set("serve.online.mean_delay", on.delay.mean());
  out.set("serve.online.p99_delay", on.delay_hist.quantile(0.99));
  out.set("serve.lru.p99_delay", lru.delay_hist.quantile(0.99));
  out.set("serve.tracegen.busy_s", tracegen_s);
  out.set("serve.tracegen.requests",
          static_cast<double>(trace.requests.size()));
  out.set("sim.des.busy_s", des_s);
  out.set("sim.des.completions", static_cast<double>(des.completions));
  out.set("serve.static.self_s", static_s - tracegen_s - des_s);
  out.set("serve.lru.self_s", lru_s - static_s);
  out.set("serve.lru.hits", static_cast<double>(lru.cache_hits));
  out.set("serve.lru.misses", static_cast<double>(lru.cache_misses));
  out.set("serve.lru.invalidations",
          static_cast<double>(lru.cache_invalidations));
  out.set("serve.lru.hit_ratio",
          lookups > 0.0 ? static_cast<double>(lru.cache_hits) / lookups : 0.0);
  out.set("serve.online.self_s", online_s - static_s);
  out.set("serve.online.reallocations", static_cast<double>(on.reallocations));
  out.set("serve.online.suppressed",
          static_cast<double>(on.suppressed_reallocations));
  out.set("serve.online.failed_estimations",
          static_cast<double>(on.failed_estimations));
  out.set("serve.online.migrated_records",
          static_cast<double>(on.migrated_records));
  out.set("serve.online.migration_waves",
          static_cast<double>(on.migration_waves));
  out.set("serve.online.stalled_requests",
          static_cast<double>(on.stalled_requests));
  out.set("fs.migration.plan_s", median(times.migration));
  out.set("fs.migration.volume",
          static_cast<double>(fap::fs::migration_volume(plan)));
  out.set("net.apsp.busy_s", tracer.total_s("net.apsp"));
  out.set("trace.overhead_s", median(times.traced) - median(times.untraced));
  out.spans_json = tracer.to_json();
}

}  // namespace

RunResult run_serve_drift(const RunConfig& config) {
  RunResult out;
  if (config.trace) {
    report_traced(config, out);
    return out;
  }

  std::unique_ptr<Deployment> deployment;
  const double setup_s = median_setup_s(kSetupRepeats, [&] {
    deployment = std::make_unique<Deployment>(config.seed, kTraces);
  });

  // At least two repetitions, so that the bitwise-repeat check has a pair.
  std::vector<double> wall_s;
  std::optional<Rep> first;
  const auto start = std::chrono::steady_clock::now();
  while (another_call(start, wall_s.size(), 2,
                      wall_s.empty() ? 0.0 : wall_s.back(),
                      config.seconds)) {
    Rep rep = serve_all(*deployment, nullptr);
    wall_s.push_back(sum(rep.wall_s));
    for (std::size_t s = 0; s < rep.results.size(); ++s) {
      account(rep.results[s], label(s), out);
    }
    if (first) {
      check_repeat(*first, rep, out);
    } else {
      first = std::move(rep);
    }
  }

  out.set("setup_s", setup_s);
  out.set("wall_s", median(wall_s));
  out.set("access_cost", pooled_access_cost(first->results));
  return out;
}

std::string serve_drift_table(std::uint64_t seed) {
  const fap::net::Topology topology = fap::net::make_ring(kNodes);
  const fap::serve::TraceWorkload workload = make_workload(seed);
  fap::util::Table table(
      {"mode", "completions", "mean delay", "p50", "p99", "p999",
       "mean comm", "hit %", "reallocs", "migrated", "stalls", "cache hit %"},
      4);
  for (std::size_t m = 0; m < std::size(kModes); ++m) {
    const TraceServeResult r =
        TraceServer(topology, workload, make_options(kModes[m]))
            .serve(kRequests);
    const double cache_total =
        static_cast<double>(r.cache_hits + r.cache_misses);
    table.add_row(
        {kModeNames[m], static_cast<double>(r.completions), r.delay.mean(),
         r.delay_hist.quantile(0.5), r.delay_hist.quantile(0.99),
         r.delay_hist.quantile(0.999), r.comm.mean(), 100.0 * r.hit_rate(),
         static_cast<double>(r.reallocations),
         static_cast<double>(r.migrated_records),
         static_cast<double>(r.stalled_requests),
         cache_total > 0.0
             ? 100.0 * static_cast<double>(r.cache_hits) / cache_total
             : 0.0});
  }
  return table.to_csv();
}

}  // namespace perfbench
