#include "catalog/catalog_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/single_file_loop.hpp"
#include "runtime/sweep.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace fap::catalog {

CatalogSolver::CatalogSolver(const CatalogSpec& spec, CatalogOptions options)
    : spec_(spec), options_(std::move(options)) {
  spec_.validate();
  FAP_EXPECTS(options_.batch_width >= 1, "batch width must be at least 1");
  FAP_EXPECTS(options_.repair_margin >= 0.0 && options_.repair_margin < 1.0,
              "repair margin must be in [0, 1)");
  FAP_EXPECTS(options_.max_repair_passes >= 1,
              "need at least one repair pass");
  // The inner solves' option checks, with the ResourceDirectedAllocator's
  // messages. The per-object model checks (λ_o > 0, μ_i > 0, stability)
  // are spec-wide facts that validate() has already established.
  const core::AllocatorOptions& inner = options_.inner;
  FAP_EXPECTS(inner.alpha > 0.0, "step size must be positive");
  FAP_EXPECTS(inner.epsilon > 0.0, "epsilon must be positive");
  FAP_EXPECTS(inner.max_iterations > 0, "need at least one iteration");
  FAP_EXPECTS(inner.dynamic_safety > 0.0 && inner.dynamic_safety <= 1.0,
              "dynamic_safety must be in (0, 1]");
  FAP_EXPECTS(!inner.record_trace,
              "catalog inner solves do not record traces; use the serial "
              "ResourceDirectedAllocator for traced runs");

  // Cbar_i = Σ_j w_j c_ji: the shared part of every object's access-cost
  // vector. Same accumulation pattern as SingleFileModel (j outer over
  // contiguous rows); the provider branch streams the identical rows in
  // the identical order, so dense- and provider-backed specs assemble the
  // same bytes.
  const std::size_t n = spec_.node_count();
  dense_ = spec_.comm.node_count() == n ? &spec_.comm : nullptr;
  base_cost_.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double weight = spec_.origin_weight[j];
    const net::CostRow row = comm_row(j);
    for (std::size_t i = 0; i < n; ++i) {
      base_cost_[i] += weight * row[i];
    }
  }

  core::detail::zero_load_tables(n, spec_.k, spec_.delay, spec_.mu.data(),
                                 k_t0_, two_dt0_);

  if (options_.auto_price_scale) {
    // A price must be comparable, through v_o·p_i, to the cost spread an
    // object chooses placements by: the base access-cost spread plus the
    // no-load delay term. Normalizing by the mean volume makes the
    // typical object see ~γ × that spread per unit of relative overload.
    const auto [lo, hi] =
        std::minmax_element(base_cost_.begin(), base_cost_.end());
    const double mu_min =
        *std::min_element(spec_.mu.begin(), spec_.mu.end());
    const double cost_span = (*hi - *lo) + spec_.k / mu_min;
    const double mean_volume =
        util::stable_sum(spec_.volume) /
        static_cast<double>(spec_.object_count());
    options_.price.price_scale =
        cost_span > 0.0 && mean_volume > 0.0 ? cost_span / mean_volume : 1.0;
  }
}

net::CostRow CatalogSolver::comm_row(std::size_t j) const {
  if (dense_ != nullptr) {
    // Zero-copy view; spec_ outlives the solver by the ctor contract, so
    // no keepalive is needed.
    return net::CostRow(dense_->row(j), dense_->node_count(), nullptr);
  }
  return spec_.comm_provider->row(j);
}

void CatalogSolver::assemble_access(std::size_t o,
                                    const std::vector<double>& prices,
                                    double* out) const {
  const double beta = spec_.locality;
  const double base_share = 1.0 - beta;
  const double v = spec_.volume[o];
  const net::CostRow row = comm_row(spec_.home[o]);
  const std::size_t n = spec_.node_count();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (base_share * base_cost_[i] + beta * row[i]) + v * prices[i];
  }
}

std::size_t CatalogSolver::start_node(std::size_t o,
                                      const double* access) const {
  // Cheapest full concentration: argmin_i C_i^o + v_o p_i + k·T(λ_o, μ_i)
  // (the priced access vector already carries the first two terms).
  // Strict < keeps the lowest index on ties.
  const double rate = spec_.rate[o];
  std::size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < spec_.node_count(); ++i) {
    const double cost =
        access[i] + spec_.k * spec_.delay.sojourn(rate, spec_.mu[i]);
    if (cost < best_cost) {
      best_cost = cost;
      best = i;
    }
  }
  return best;
}

std::vector<double> CatalogSolver::object_access_cost(
    std::size_t o, const std::vector<double>& prices) const {
  FAP_EXPECTS(o < spec_.object_count(), "object index out of range");
  FAP_EXPECTS(prices.size() == spec_.node_count(),
              "one price per node");
  std::vector<double> access(spec_.node_count());
  assemble_access(o, prices, access.data());
  return access;
}

std::vector<double> CatalogSolver::object_start(
    std::size_t o, const std::vector<double>& prices) const {
  const std::vector<double> access = object_access_cost(o, prices);
  std::vector<double> start(spec_.node_count(), 0.0);
  start[start_node(o, access.data())] = 1.0;
  return start;
}

/// One sweep task's scratch, sized to the node count and reused by every
/// object of the task.
struct CatalogSolver::InnerScratch {
  explicit InnerScratch(std::size_t n) : access(n) { loop.x.resize(n); }

  std::vector<double> access;  ///< priced C_i^o
  core::detail::SingleFileScratch loop;
  const std::vector<double> no_caps;  ///< objects have no storage caps
};

CatalogSolver::ObjectAllocation CatalogSolver::solve_object(
    std::size_t o, const std::vector<double>& prices,
    InnerScratch& s) const {
  // ResourceDirectedAllocator::run on the object's SingleFileModel,
  // from the point mass on start_node, through core's shared §5.2 loop.
  const std::size_t n = spec_.node_count();
  assemble_access(o, prices, s.access.data());
  std::vector<double>& x = s.loop.x;
  std::fill(x.begin(), x.end(), 0.0);
  x[start_node(o, s.access.data())] = 1.0;

  core::detail::SingleFileInstance inst;
  inst.n = n;
  inst.rate = spec_.rate[o];
  inst.k = spec_.k;
  inst.delay = &spec_.delay;
  inst.access = s.access.data();
  inst.mu = spec_.mu.data();
  inst.k_t0 = k_t0_.data();
  inst.two_dt0 = two_dt0_.data();
  const core::detail::SingleFileOutcome run = core::detail::
      run_single_file_loop(inst, s.no_caps, options_.inner, s.loop);

  ObjectAllocation out;
  out.iterations = static_cast<std::uint32_t>(run.iterations);
  out.converged = run.converged;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] != 0.0) {
      out.placements.push_back(Placement{static_cast<std::uint32_t>(i), x[i]});
    }
  }
  return out;
}

std::vector<CatalogSolver::ObjectAllocation> CatalogSolver::solve_round(
    const std::vector<double>& prices) const {
  const std::size_t n = spec_.node_count();
  FAP_EXPECTS(prices.size() == n, "one price per node");
  runtime::SweepOptions sweep_options;
  sweep_options.jobs = options_.jobs;
  sweep_options.base_seed = options_.base_seed;
  sweep_options.metrics = options_.metrics;
  sweep_options.run_id = options_.run_id;
  // make() tags items with their object index; all per-object state is a
  // pure function of (index, prices), so the sweep seed is unused here —
  // it exists so --metrics records line up with the repo's other sweeps.
  return runtime::batch_sweep(
      spec_.object_count(), options_.batch_width, sweep_options,
      [](std::size_t o, std::uint64_t) {
        return static_cast<std::uint32_t>(o);
      },
      [this, n, &prices](std::size_t,
                         const std::vector<std::uint32_t>& items) {
        InnerScratch scratch(n);
        std::vector<ObjectAllocation> out;
        out.reserve(items.size());
        for (const std::uint32_t o : items) {
          out.push_back(solve_object(o, prices, scratch));
        }
        return out;
      });
}

std::vector<double> CatalogSolver::node_loads(
    const std::vector<ObjectAllocation>& allocations) const {
  // Canonical accounting: objects in index order, Neumaier-compensated
  // per node, so the loads (and every residual decision made from them)
  // are independent of how the solve was sharded and accurate to O(eps)
  // at a million addends.
  std::vector<util::NeumaierSum> acc(spec_.node_count());
  for (std::size_t o = 0; o < allocations.size(); ++o) {
    const double v = spec_.volume[o];
    for (const Placement& placement : allocations[o].placements) {
      acc[placement.node].add(v * placement.fraction);
    }
  }
  std::vector<double> loads(spec_.node_count());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    loads[i] = acc[i].value();
  }
  return loads;
}

void CatalogSolver::repair(std::vector<ObjectAllocation>& allocations,
                           std::vector<double>& loads,
                           const std::vector<double>& prices,
                           CatalogResult& result) const {
  const std::size_t n = spec_.node_count();
  std::vector<double> access(n);
  // Drain targets sit `repair_margin` below each budget so the canonical
  // recompute cannot round a drained node back over B_i.
  std::vector<double> target(n);
  for (std::size_t i = 0; i < n; ++i) {
    target[i] = spec_.node_capacity[i] * (1.0 - options_.repair_margin);
  }

  for (std::size_t pass = 0; pass < options_.max_repair_passes; ++pass) {
    bool any_overloaded = false;
    for (std::size_t i = 0; i < n; ++i) {
      any_overloaded |= loads[i] > spec_.node_capacity[i];
    }
    if (!any_overloaded) {
      break;
    }

    // Holders of fragments on overloaded nodes, built in one pass over
    // the catalog (ascending object index, so back() is the coldest —
    // highest-index — object under the synthetic generator's
    // rate-descending ordering, and a deterministic choice regardless).
    std::vector<std::vector<std::uint32_t>> holders(n);
    for (std::size_t o = 0; o < allocations.size(); ++o) {
      for (const Placement& placement : allocations[o].placements) {
        if (placement.fraction > 0.0 &&
            loads[placement.node] > spec_.node_capacity[placement.node]) {
          holders[placement.node].push_back(static_cast<std::uint32_t>(o));
        }
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
      while (loads[i] > target[i] && !holders[i].empty()) {
        const std::uint32_t o = holders[i].back();
        holders[i].pop_back();
        std::vector<Placement>& placements = allocations[o].placements;
        auto source = std::find_if(
            placements.begin(), placements.end(),
            [i](const Placement& p) { return p.node == i; });
        if (source == placements.end() || source->fraction <= 0.0) {
          continue;
        }
        const double v = spec_.volume[o];
        assemble_access(o, prices, access.data());

        while (loads[i] > target[i] && source->fraction > 0.0) {
          // Cheapest receiver with slack, by the same priced cost the
          // inner solves minimize.
          std::size_t best = n;
          double best_cost = std::numeric_limits<double>::infinity();
          for (std::size_t j = 0; j < n; ++j) {
            if (j == i || loads[j] >= target[j]) {
              continue;
            }
            if (access[j] < best_cost) {
              best_cost = access[j];
              best = j;
            }
          }
          if (best == n) {
            // No slack anywhere: nothing more this pass (or any later
            // one) can move. Settle the books and report what remains.
            loads = node_loads(allocations);
            return;
          }
          double move = std::min(source->fraction,
                                 (loads[i] - target[i]) / v);
          move = std::min(move, (target[best] - loads[best]) / v);
          if (move <= 0.0) {
            break;
          }
          if (move >= source->fraction) {
            move = source->fraction;
            source->fraction = 0.0;
          } else {
            source->fraction -= move;
          }
          auto sink = std::find_if(
              placements.begin(), placements.end(),
              [best](const Placement& p) { return p.node == best; });
          if (sink == placements.end()) {
            placements.push_back(
                Placement{static_cast<std::uint32_t>(best), move});
            source = std::find_if(
                placements.begin(), placements.end(),
                [i](const Placement& p) { return p.node == i; });
          } else {
            sink->fraction += move;
          }
          loads[i] -= v * move;
          loads[best] += v * move;
          ++result.repair_moves;
        }
      }
    }
    // Canonical recompute: the incremental adds above are bookkeeping;
    // decisions for the next pass use the compensated ground truth.
    loads = node_loads(allocations);
  }
}

CatalogResult CatalogSolver::solve() const {
  CapacityPriceLoop loop(spec_.node_capacity, options_.price);

  CatalogResult result;
  std::vector<ObjectAllocation> allocations;
  std::vector<double> loads;
  while (true) {
    allocations = solve_round(loop.prices());
    ++result.rounds;
    loads = node_loads(allocations);
    if (loop.update(loads) || !loop.active()) {
      break;
    }
  }
  result.price_converged = loop.converged();
  result.oscillations = loop.diagnostics().oscillations;
  result.gamma = loop.diagnostics().gamma;
  result.prices = loop.prices();

  const std::size_t n = spec_.node_count();
  double residual = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    residual = std::max(residual, loads[i] - spec_.node_capacity[i]);
  }
  result.pre_repair_residual = std::max(0.0, residual);

  repair(allocations, loads, result.prices, result);

  result.node_load = loads;
  residual = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    residual = std::max(residual, loads[i] - spec_.node_capacity[i]);
  }
  result.residual = std::max(0.0, residual);

  // Final CSR + the onlineJCCP-style workload metrics.
  const std::size_t count = spec_.object_count();
  const double beta = spec_.locality;
  const double base_share = 1.0 - beta;
  result.offsets.resize(count + 1);
  util::NeumaierSum rate_total;
  util::NeumaierSum hit_traffic;
  util::NeumaierSum comm_traffic;
  std::size_t fragment_total = 0;
  std::uint64_t iteration_total = 0;
  for (std::size_t o = 0; o < count; ++o) {
    result.offsets[o] =
        static_cast<std::uint32_t>(result.placements.size());
    const ObjectAllocation& alloc = allocations[o];
    iteration_total += alloc.iterations;
    if (!alloc.converged) {
      ++result.unconverged_objects;
    }
    const double rate = spec_.rate[o];
    const std::uint32_t home = spec_.home[o];
    const net::CostRow row = comm_row(home);
    double hit = 0.0;
    double comm_cost = 0.0;
    for (const Placement& placement : alloc.placements) {
      if (placement.fraction <= 0.0) {
        continue;  // entries drained to exactly 0 by the repair pass
      }
      result.placements.push_back(placement);
      ++fragment_total;
      const double unpriced = base_share * base_cost_[placement.node] +
                              beta * row[placement.node];
      comm_cost += placement.fraction * unpriced;
      // An access is a "hit" when it is served where it originated:
      // origin node j hosts share x_j, and object o's origins are the
      // (1-β) w_j mix plus the β home-node mass.
      hit += placement.fraction *
             (base_share * spec_.origin_weight[placement.node] +
              (placement.node == home ? beta : 0.0));
    }
    rate_total.add(rate);
    hit_traffic.add(rate * hit);
    comm_traffic.add(rate * comm_cost);
  }
  result.offsets[count] =
      static_cast<std::uint32_t>(result.placements.size());
  result.inner_iterations = iteration_total;
  result.hit_rate = hit_traffic.value() / rate_total.value();
  result.external_traffic = comm_traffic.value();
  result.mean_fragments =
      static_cast<double>(fragment_total) / static_cast<double>(count);
  return result;
}

}  // namespace fap::catalog
