#include "catalog/catalog_spec.hpp"

#include <algorithm>
#include <cmath>

#include "fs/popularity.hpp"
#include "net/generators.hpp"
#include "runtime/sweep.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"

namespace fap::catalog {

void CatalogSpec::validate() const {
  const std::size_t n = node_count();
  const std::size_t count = object_count();
  FAP_EXPECTS(n >= 1, "catalog needs at least one node");
  FAP_EXPECTS(count >= 1, "catalog needs at least one object");
  if (comm_provider != nullptr && comm.node_count() == 0) {
    FAP_EXPECTS(comm_provider->node_count() == n,
                "cost provider size must match node count");
  } else {
    FAP_EXPECTS(comm.node_count() == n,
                "cost matrix size must match node count");
  }
  FAP_EXPECTS(node_capacity.size() == n,
              "one capacity budget per node");
  FAP_EXPECTS(origin_weight.size() == n, "one origin weight per node");
  FAP_EXPECTS(volume.size() == count && home.size() == count,
              "object arrays must have equal length");
  // Finiteness first, each with its own message: an infinite k, μ or
  // rate would otherwise pass the sign checks and fail deep inside the
  // solve, and an infinite budget or volume would be misreported by the
  // capacity-total check below.
  FAP_EXPECTS(std::isfinite(k), "k must be finite");
  FAP_EXPECTS(k >= 0.0, "k must be non-negative");
  FAP_EXPECTS(std::isfinite(locality), "locality must be finite");
  FAP_EXPECTS(locality >= 0.0 && locality <= 1.0,
              "locality must be in [0, 1]");

  double weight_total = 0.0;
  for (const double w : origin_weight) {
    FAP_EXPECTS(std::isfinite(w), "origin weights must be finite");
    FAP_EXPECTS(w >= 0.0, "origin weights must be non-negative");
    weight_total += w;
  }
  FAP_EXPECTS(std::fabs(weight_total - 1.0) < 1e-6,
              "origin weights must form a distribution");

  double capacity_min = node_capacity.empty() ? 0.0 : node_capacity[0];
  for (const double cap : node_capacity) {
    FAP_EXPECTS(std::isfinite(cap), "capacity budgets must be finite");
    FAP_EXPECTS(cap >= 0.0, "capacity budgets must be non-negative");
    capacity_min = std::min(capacity_min, cap);
  }
  double mu_min = mu[0];
  for (const double m : mu) {
    FAP_EXPECTS(std::isfinite(m), "service rates must be finite");
    FAP_EXPECTS(m > 0.0, "service rates must be positive");
    mu_min = std::min(mu_min, m);
  }

  // The per-object checks in message order. The O(K) loop below runs
  // only the sign and range tests; NaN and -inf fail those, and +inf
  // surfaces in rate_max or the volume total, so a non-finite field
  // always reaches this and is reported by name.
  const auto check_object = [&](std::size_t o) {
    FAP_EXPECTS(std::isfinite(rate[o]), "object rates must be finite");
    FAP_EXPECTS(rate[o] > 0.0, "object rates must be positive");
    FAP_EXPECTS(std::isfinite(volume[o]), "object volumes must be finite");
    FAP_EXPECTS(volume[o] > 0.0, "object volumes must be positive");
    FAP_EXPECTS(home[o] < n, "home node out of range");
  };
  double rate_max = 0.0;
  util::NeumaierSum volume_total;
  for (std::size_t o = 0; o < count; ++o) {
    if (!(rate[o] > 0.0 && volume[o] > 0.0 && home[o] < n)) {
      check_object(o);
    }
    rate_max = std::max(rate_max, rate[o]);
    volume_total.add(volume[o]);
  }
  if (!std::isfinite(rate_max) || !std::isfinite(volume_total.value())) {
    for (std::size_t o = 0; o < count; ++o) {
      check_object(o);
    }
  }
  if (delay.rho_max() >= 1.0) {
    // Pure delay model: an object can concentrate fully on any node, so
    // stability needs every object's whole rate below every node's
    // capacity (the SingleFileModel condition, per object).
    FAP_EXPECTS(rate_max < delay.capacity(mu_min),
                "stability requires every object rate below every node's "
                "service capacity (or a linearized delay model)");
  }
  FAP_EXPECTS(util::stable_sum(node_capacity) >=
                  volume_total.value() * (1.0 - 1e-12),
              "total capacity must hold the total catalog volume");
}

namespace {

CatalogSpec build_synthetic(
    const SyntheticCatalogOptions& options, std::uint64_t seed,
    net::CostMatrix comm,
    std::shared_ptr<const net::CostProvider> provider = nullptr) {
  FAP_EXPECTS(options.objects >= 1, "need at least one object");
  FAP_EXPECTS(options.nodes >= 1, "need at least one node");
  FAP_EXPECTS(options.headroom >= 0.0, "headroom must be non-negative");
  FAP_EXPECTS(options.hottest_utilization > 0.0 &&
                  options.hottest_utilization < 1.0,
              "hottest object utilization must be in (0, 1)");

  const std::size_t n = options.nodes;
  CatalogSpec spec;
  spec.comm = std::move(comm);
  spec.comm_provider = std::move(provider);
  spec.mu.assign(n, 1.0);
  spec.k = options.k;
  spec.locality = options.locality;

  // Origin mix: normalized uniform draws from the spec-level stream (the
  // same stream that placed the topology's nodes — both are "network
  // facts", distinct from the per-object streams below).
  util::Rng rng(seed);
  rng.split();  // skip the sub-stream make_synthetic_catalog handed to
                // make_random_metric (see callers)
  std::vector<double> weights(n);
  for (double& w : weights) {
    w = rng.uniform(0.5, 1.5);
  }
  spec.origin_weight = fs::normalized_popularity(std::move(weights));

  // Zipf rates scaled so the hottest object uses a bounded fraction of a
  // node's (unit) service rate — every per-object queue is stable even
  // when fully concentrated.
  spec.rate = fs::zipf_popularity(options.objects, options.zipf_s);
  const double total_rate = options.hottest_utilization / spec.rate[0];
  for (double& r : spec.rate) {
    r *= total_rate;
  }

  // Per-object volume (log-uniform over ~1.3 decades) and home node from
  // the object's OWN stream: task_seed(seed, o), the runtime::sweep
  // splitting contract, so object o's data does not depend on how many
  // objects precede it. Enumerated through TaskSeedSequence (one stream
  // walk, same values) — per-object task_seed calls are O(o) each.
  spec.volume.resize(options.objects);
  spec.home.resize(options.objects);
  runtime::TaskSeedSequence object_seeds(seed);
  util::NeumaierSum volume_total;
  for (std::size_t o = 0; o < options.objects; ++o) {
    util::Rng object_rng(object_seeds.next());
    spec.volume[o] =
        std::exp(object_rng.uniform(std::log(0.05), std::log(1.0)));
    spec.home[o] =
        static_cast<std::uint32_t>(object_rng.uniform_index(n));
    volume_total.add(spec.volume[o]);
  }

  const double capacity_each = (1.0 + options.headroom) *
                               volume_total.value() /
                               static_cast<double>(n);
  spec.node_capacity.assign(n, capacity_each);
  spec.validate();
  return spec;
}

net::Topology synthetic_topology(const SyntheticCatalogOptions& options,
                                 std::uint64_t seed) {
  FAP_EXPECTS(options.nodes >= 2,
              "the synthetic catalog's random-metric network needs at least "
              "two nodes");
  // The topology draws from a split of the spec stream so that the
  // origin-weight draws in build_synthetic are independent of how many
  // variates the generator consumed.
  util::Rng rng(seed);
  util::Rng topo_rng = rng.split();
  const std::size_t neighbors = std::min<std::size_t>(3, options.nodes - 1);
  return net::make_random_metric(options.nodes, neighbors, topo_rng);
}

}  // namespace

CatalogSpec make_synthetic_catalog(const SyntheticCatalogOptions& options,
                                   std::uint64_t seed) {
  return build_synthetic(
      options, seed,
      net::all_pairs_shortest_paths(synthetic_topology(options, seed)));
}

CatalogSpec make_synthetic_catalog(const SyntheticCatalogOptions& options,
                                   std::uint64_t seed,
                                   net::CostMatrixCache& cache) {
  return build_synthetic(options, seed,
                         *cache.get(synthetic_topology(options, seed)));
}

CatalogSpec make_synthetic_catalog(const SyntheticCatalogOptions& options,
                                   std::uint64_t seed, net::CostMatrix comm) {
  FAP_EXPECTS(comm.node_count() == options.nodes,
              "cost matrix size must match options.nodes");
  return build_synthetic(options, seed, std::move(comm));
}

CatalogSpec make_synthetic_catalog(
    const SyntheticCatalogOptions& options, std::uint64_t seed,
    std::shared_ptr<const net::CostProvider> comm) {
  FAP_EXPECTS(comm != nullptr, "provider overload needs a provider");
  FAP_EXPECTS(comm->node_count() == options.nodes,
              "cost provider size must match options.nodes");
  return build_synthetic(options, seed, net::CostMatrix(0), std::move(comm));
}

}  // namespace fap::catalog
