#include "support/des_reference.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>
#include <random>
#include <unordered_map>

#include "sim/alias_sampler.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace fap::testing {

using sim::AccessObservation;
using sim::AliasSampler;
using sim::DesConfig;
using sim::ServiceDistribution;
using sim::WindowStats;

namespace {

enum class EventKind { kGenerate, kArrive, kDeparture };

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  // tie-breaker for deterministic ordering
  EventKind kind = EventKind::kGenerate;
  std::size_t node = 0;
  /// Server epoch the event belongs to; a node failure bumps the server's
  /// epoch, voiding any in-flight departure event (the service it
  /// represented was lost with the node).
  std::uint64_t epoch = 0;
  // kArrive payload: the in-transit access.
  std::size_t source = 0;
  double comm_cost = 0.0;
  double generated_time = 0.0;
  // kDeparture payload: the completing job.
  std::uint64_t job = 0;
  bool operator>(const Event& other) const noexcept {
    if (time != other.time) {
      return time > other.time;
    }
    return seq > other.seq;
  }
};

struct Server {
  std::size_t capacity = 1;  // parallel servers (M/M/c node)
  std::uint64_t epoch = 0;   // bumped on failure; voids stale departures
  struct Pending {
    double arrival_time;
    double comm_cost;
    std::size_t source;
    double generated_time;
  };
  struct Active {
    Pending pending;
    double service_start;
  };
  std::deque<Pending> queue;
  std::unordered_map<std::uint64_t, Active> active;  // by job id

  /// Active job ids in ascending order — the canonical iteration order
  /// shared with the rewritten engine (see the header note).
  std::vector<std::uint64_t> sorted_active_jobs() const {
    std::vector<std::uint64_t> jobs;
    jobs.reserve(active.size());
    for (const auto& [job, record] : active) {
      jobs.push_back(job);
    }
    std::sort(jobs.begin(), jobs.end());
    return jobs;
  }
};

void validate_config(const DesConfig& config) {
  const std::size_t n = config.lambda.size();
  FAP_EXPECTS(n >= 1, "need at least one node");
  FAP_EXPECTS(config.mu.size() == n, "mu size mismatch");
  FAP_EXPECTS(config.routing.size() == n, "routing size mismatch");
  FAP_EXPECTS(config.comm_cost.size() == n, "comm cost size mismatch");
  for (std::size_t j = 0; j < n; ++j) {
    FAP_EXPECTS(config.lambda[j] >= 0.0, "rates must be non-negative");
    FAP_EXPECTS(config.mu[j] > 0.0, "service rates must be positive");
    FAP_EXPECTS(config.routing[j].size() == n, "routing row size mismatch");
    FAP_EXPECTS(config.comm_cost[j].size() == n, "comm row size mismatch");
  }
}

}  // namespace

struct DesReferenceSystem::Impl {
  DesConfig config;
  util::Rng rng;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  std::uint64_t seq = 0;
  std::vector<AliasSampler> samplers;
  std::vector<Server> servers;
  std::gamma_distribution<double> gamma;
  /// Per-node server busy time accumulated (on departures) since the
  /// window opened; window() adds the in-progress partials on top.
  std::vector<double> busy_accum;
  std::vector<bool> failed;
  std::size_t total_completions = 0;
  std::uint64_t next_job = 0;

  explicit Impl(DesConfig cfg)
      : config(std::move(cfg)), rng(config.seed),
        servers(config.lambda.size()),
        busy_accum(config.lambda.size(), 0.0),
        failed(config.lambda.size(), false) {
    validate_config(config);
    FAP_EXPECTS(config.hop_latency >= 0.0,
                "hop latency must be non-negative");
    if (!config.route_hops.empty()) {
      FAP_EXPECTS(config.route_hops.size() == config.lambda.size(),
                  "route hop matrix size mismatch");
      for (const auto& row : config.route_hops) {
        FAP_EXPECTS(row.size() == config.lambda.size(),
                    "route hop row size mismatch");
      }
    }
    rebuild_samplers(config.routing);
    if (config.service == ServiceDistribution::kGamma) {
      FAP_EXPECTS(config.service_scv > 0.0, "gamma service needs scv > 0");
      gamma = std::gamma_distribution<double>(1.0 / config.service_scv, 1.0);
    }
    if (!config.servers_per_node.empty()) {
      FAP_EXPECTS(config.servers_per_node.size() == config.lambda.size(),
                  "servers_per_node size mismatch");
      for (std::size_t i = 0; i < servers.size(); ++i) {
        FAP_EXPECTS(config.servers_per_node[i] >= 1,
                    "each node needs at least one server");
        servers[i].capacity = config.servers_per_node[i];
      }
    }
    for (std::size_t j = 0; j < config.lambda.size(); ++j) {
      if (config.lambda[j] > 0.0) {
        events.push(Event{rng.exponential(config.lambda[j]), seq++,
                          EventKind::kGenerate, j});
      }
    }
    FAP_EXPECTS(config.open_loop || !events.empty(),
                "at least one node must generate accesses");
  }

  void rebuild_samplers(const std::vector<std::vector<double>>& routing) {
    FAP_EXPECTS(routing.size() == config.lambda.size(),
                "routing size mismatch");
    std::vector<AliasSampler> fresh;
    fresh.reserve(routing.size());
    for (const std::vector<double>& row : routing) {
      FAP_EXPECTS(row.size() == config.lambda.size(),
                  "routing row size mismatch");
      fresh.emplace_back(row);
    }
    samplers = std::move(fresh);
  }

  /// One-way transit time of the source->target route.
  double transit(std::size_t source, std::size_t target) const {
    if (config.hop_latency == 0.0 || source == target) {
      return 0.0;
    }
    const std::size_t hops = config.route_hops.empty()
                                 ? 1
                                 : config.route_hops[source][target];
    return config.hop_latency * static_cast<double>(hops);
  }

  double sample_service(std::size_t node) {
    switch (config.service) {
      case ServiceDistribution::kExponential:
        return rng.exponential(config.mu[node]);
      case ServiceDistribution::kDeterministic:
        return 1.0 / config.mu[node];
      case ServiceDistribution::kGamma:
        return gamma(rng) * config.service_scv / config.mu[node];
    }
    return 1.0 / config.mu[node];
  }

  // Moves queue heads into free servers, scheduling their departures.
  void dispatch(std::size_t node, double now) {
    Server& server = servers[node];
    while (server.active.size() < server.capacity &&
           !server.queue.empty()) {
      const std::uint64_t job = next_job++;
      server.active.emplace(job,
                            Server::Active{server.queue.front(), now});
      server.queue.pop_front();
      Event departure{now + sample_service(node), seq++,
                      EventKind::kDeparture, node, server.epoch};
      departure.job = job;
      events.push(departure);
    }
  }
};

DesReferenceSystem::DesReferenceSystem(DesConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {
  window_.node.resize(impl_->config.lambda.size());
}

DesReferenceSystem::~DesReferenceSystem() = default;
DesReferenceSystem::DesReferenceSystem(DesReferenceSystem&&) noexcept =
    default;
DesReferenceSystem& DesReferenceSystem::operator=(
    DesReferenceSystem&&) noexcept = default;

void DesReferenceSystem::set_routing(
    const std::vector<std::vector<double>>& routing) {
  impl_->rebuild_samplers(routing);
  impl_->config.routing = routing;
}

void DesReferenceSystem::inject_access(double time, std::size_t source,
                                       std::size_t target, double comm,
                                       double extra_latency) {
  Impl& impl = *impl_;
  const std::size_t n = impl.config.lambda.size();
  FAP_EXPECTS(time >= now_, "cannot inject an access in the past");
  FAP_EXPECTS(source < n && target < n, "node out of range");
  FAP_EXPECTS(extra_latency >= 0.0, "extra latency must be non-negative");
  // Every injected access is an in-flight kArrive event on the one
  // priority queue, due after its stall plus the route's transit.
  impl.events.push(Event{time + extra_latency + impl.transit(source, target),
                         impl.seq++, EventKind::kArrive, target, 0, source,
                         comm, time});
}

void DesReferenceSystem::set_node_failed(std::size_t node, bool failed) {
  FAP_EXPECTS(node < impl_->config.lambda.size(), "node out of range");
  if (impl_->failed[node] == failed) {
    return;
  }
  impl_->failed[node] = failed;
  Server& server = impl_->servers[node];
  if (failed) {
    // All queued and in-service work at the node is lost.
    const std::size_t lost = server.queue.size() + server.active.size();
    for (const std::uint64_t job : server.sorted_active_jobs()) {
      const Server::Active& active = server.active.at(job);
      impl_->busy_accum[node] +=
          now_ - std::max(active.service_start, window_.start_time);
    }
    if (now_ >= window_.start_time) {
      window_.failed_accesses += lost;
    }
    server.queue.clear();
    server.active.clear();
    ++server.epoch;  // voids the in-flight departure events, if any
  }
  // Repair needs no special action: the node resumes idle and future
  // accesses routed to it are served normally.
}

void DesReferenceSystem::process_one_event() {
  Impl& impl = *impl_;
  FAP_ENSURES(!impl.events.empty(), "event queue drained unexpectedly");
  const Event event = impl.events.top();
  impl.events.pop();
  now_ = event.time;

  auto enqueue_access = [&](std::size_t source, std::size_t target,
                            double comm, double generated_time) {
    if (impl.failed[target]) {
      // The fragment at a failed node is unreachable; the access is lost.
      if (now_ >= window_.start_time) {
        ++window_.failed_accesses;
      }
      return;
    }
    Server& server = impl.servers[target];
    if (now_ >= window_.start_time) {
      ++window_.node[target].arrivals;
    }
    server.queue.push_back(
        Server::Pending{now_, comm, source, generated_time});
    impl.dispatch(target, now_);
  };

  if (event.kind == EventKind::kGenerate) {
    const std::size_t source = event.node;
    impl.events.push(Event{now_ + impl.rng.exponential(
                                      impl.config.lambda[source]),
                           impl.seq++, EventKind::kGenerate, source, 0});
    const std::size_t target = impl.samplers[source].sample(
        impl.rng.uniform());
    const double comm = impl.config.comm_cost[source][target];
    const double transit = impl.transit(source, target);
    if (transit > 0.0) {
      // Store-and-forward: the request is in flight for `transit`.
      Event arrival{now_ + transit, impl.seq++, EventKind::kArrive, target,
                    0,              source,     comm,               now_};
      impl.events.push(arrival);
    } else {
      enqueue_access(source, target, comm, now_);
    }
  } else if (event.kind == EventKind::kArrive) {
    enqueue_access(event.source, event.node, event.comm_cost,
                   event.generated_time);
  } else {
    const std::size_t node = event.node;
    Server& server = impl.servers[node];
    if (event.epoch != server.epoch) {
      return;  // the node failed after this service started; event is void
    }
    const auto it = server.active.find(event.job);
    FAP_ENSURES(it != server.active.end(),
                "departure event for an unknown job");
    const Server::Pending& pending = it->second.pending;
    const double service_start = it->second.service_start;
    const double sojourn = now_ - pending.arrival_time;
    ++impl.total_completions;
    if (impl.config.window_by_completion ||
        pending.arrival_time >= window_.start_time) {
      window_.comm_cost.add(pending.comm_cost);
      window_.sojourn.add(sojourn);
      window_.node[node].sojourn.add(sojourn);
      // Response reaches the requester after the return transit.
      const double response =
          now_ + impl.transit(pending.source, node) - pending.generated_time;
      window_.response_time.add(response);
      window_.response_hist.add(response);
      ++window_.completions;
      if (impl.config.record_log) {
        window_.log.push_back(AccessObservation{
            pending.source, node, pending.arrival_time, service_start,
            now_, pending.comm_cost});
      }
    }
    impl.busy_accum[node] +=
        now_ - std::max(service_start, window_.start_time);
    server.active.erase(it);
    impl.dispatch(node, now_);
  }
}

void DesReferenceSystem::advance_until(double time) {
  FAP_EXPECTS(time >= now_, "cannot advance backwards in time");
  while (!impl_->events.empty() && impl_->events.top().time <= time) {
    process_one_event();
  }
  now_ = time;
}

std::size_t DesReferenceSystem::advance_completions(std::size_t count) {
  const std::size_t start = impl_->total_completions;
  // Generators never stop, so guard against a system that can no longer
  // complete anything (e.g. every routing target failed).
  const std::size_t event_budget =
      sim::kEventBudgetPerCompletion * count + sim::kEventBudgetFloor;
  std::size_t events_processed = 0;
  while (impl_->total_completions < start + count) {
    if (impl_->events.empty()) {
      break;
    }
    FAP_ENSURES(events_processed++ < event_budget,
                "no service completions are being made — are all routed "
                "nodes failed?");
    process_one_event();
  }
  return impl_->total_completions - start;
}

void DesReferenceSystem::reset_window() {
  const std::size_t n = impl_->config.lambda.size();
  WindowStats fresh;
  fresh.node.resize(n);
  fresh.start_time = now_;
  window_ = std::move(fresh);
  std::fill(impl_->busy_accum.begin(), impl_->busy_accum.end(), 0.0);
}

const WindowStats& DesReferenceSystem::window() {
  const std::size_t n = impl_->config.lambda.size();
  window_.span = std::max(now_ - window_.start_time, 1e-12);
  for (std::size_t i = 0; i < n; ++i) {
    double busy = impl_->busy_accum[i];
    const Server& server = impl_->servers[i];
    for (const std::uint64_t job : server.sorted_active_jobs()) {
      const Server::Active& active = server.active.at(job);
      busy += now_ - std::max(active.service_start, window_.start_time);
    }
    window_.node[i].busy_time = busy;
    // Utilization is per server: busy server-time over capacity·span.
    window_.node[i].utilization =
        busy / (window_.span * static_cast<double>(server.capacity));
    window_.node[i].observed_arrival_rate =
        static_cast<double>(window_.node[i].arrivals) / window_.span;
  }
  return window_;
}

}  // namespace fap::testing
