// Experiment A16: catalog allocation at scale. One price-decomposed
// solve per rung of a K-ladder (object count grows to --objects) over a
// fixed synthetic network, reporting the dual-loop diagnostics and the
// onlineJCCP-style workload metrics of the final allocation.
//
// The network side is selectable: the default random-metric topology
// carries a dense APSP matrix, while --topology fat-tree / geo-tiers
// builds a structured tier tree whose c_ij can also be served row-based
// (--provider rows: LRU-cached per-source Dijkstra) or implicitly
// (--provider implicit: O(depth) tier arithmetic, no matrix and no graph
// traversal). Providers return bit-equal rows, so for a fixed topology
// the stdout table is byte-identical across providers; `rows`/`implicit`
// keep the cost structure at O(n + cached rows) instead of n², which is
// what lets --nodes 4096 run end to end.
//
// The stdout table is a pure function of (flags, seed): no timing column,
// so `catalog_scale --jobs 1 --csv` and `--jobs 8 --csv` must be
// byte-identical — CI diffs the two. Wall-clock timings go to stderr.
//
// The acceptance configuration is the default one: 1e6 objects over 100
// nodes, capacity-violation residual <= 1e-9, solved in seconds.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "catalog/catalog_solver.hpp"
#include "catalog/catalog_spec.hpp"
#include "net/cost_cache.hpp"
#include "net/cost_provider.hpp"
#include "net/hierarchy.hpp"
#include "util/table.hpp"

namespace {

std::size_t fat_tree_fanout(std::size_t target) {
  std::size_t k = 1;
  while (1 + k + k * k + k * k * k < target) {
    ++k;
  }
  return k;
}

std::size_t geo_racks(std::size_t target) {
  // 4 regions × 4 DCs: N = 21 + 16·racks.
  return target > 21 + 16 ? (target - 21 + 15) / 16 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fap;
  std::uint64_t objects = 1000000;
  std::uint64_t nodes = 100;
  std::uint64_t headroom_pct = 25;
  std::uint64_t zipf_milli = 900;
  std::uint64_t locality_pct = 50;
  std::uint64_t row_cache = net::RowCostProvider::kDefaultCapacity;
  std::uint64_t inner_iters = 0;
  std::string topology = "metric";
  std::string provider = "dense";
  bench::register_numeric_flag("--objects", "catalog size (ladder top)",
                               &objects);
  bench::register_numeric_flag("--nodes", "network size", &nodes);
  bench::register_numeric_flag("--headroom-pct",
                               "capacity slack over total volume, percent",
                               &headroom_pct);
  bench::register_numeric_flag("--zipf-milli",
                               "popularity exponent, thousandths",
                               &zipf_milli);
  bench::register_numeric_flag("--locality-pct",
                               "home-node share of accesses, percent",
                               &locality_pct);
  bench::register_numeric_flag("--row-cache",
                               "cached rows per provider (default 64)",
                               &row_cache);
  bench::register_numeric_flag(
      "--inner-iters",
      "per-object allocator iteration cap (0 = library default). Large "
      "symmetric trees tie thousands of leaf costs exactly, and the "
      "spread-mass equilibrium then costs ~n per iteration per object; "
      "capping trades reported convergence for wall time (the repair pass "
      "still closes capacity residuals, and `unconverged` stays honest)",
      &inner_iters);
  bench::register_string_flag("--topology",
                              "metric | fat-tree | geo-tiers", &topology);
  bench::register_string_flag("--provider",
                              "dense | rows | implicit", &provider);
  bench::init(argc, argv);

  if (topology != "metric" && topology != "fat-tree" &&
      topology != "geo-tiers") {
    std::cerr << argv[0] << ": unknown --topology '" << topology << "'\n";
    return 2;
  }
  if (provider != "dense" && provider != "rows" && provider != "implicit") {
    std::cerr << argv[0] << ": unknown --provider '" << provider << "'\n";
    return 2;
  }
  const bool tiered = topology != "metric";
  if (!tiered && provider != "dense") {
    std::cerr << argv[0]
              << ": --provider rows/implicit needs --topology fat-tree or "
                 "geo-tiers (the metric network is the dense baseline)\n";
    return 2;
  }
  if (!tiered && nodes < 2) {
    std::cerr << argv[0]
              << ": --nodes must be at least 2 on the metric topology\n";
    return 2;
  }

  bench::print_header(
      "Experiment A16",
      "price-decomposed catalog allocation over shared capacities");

  catalog::SyntheticCatalogOptions synth;
  synth.nodes = static_cast<std::size_t>(nodes);
  synth.headroom = static_cast<double>(headroom_pct) / 100.0;
  synth.zipf_s = static_cast<double>(zipf_milli) / 1000.0;
  synth.locality = static_cast<double>(locality_pct) / 100.0;

  // Structured network, built once across the whole ladder. --nodes is a
  // TARGET there: the generators land on the nearest size at or above it
  // (fat-tree: smallest k with 1+k+k²+k³ >= target; geo-tiers: enough
  // racks under 4 regions × 4 DCs). The object/origin RNG streams do not
  // depend on the network, only on (options, seed).
  std::unique_ptr<net::TieredNetwork> network;
  std::shared_ptr<const net::CostProvider> comm_provider;
  if (tiered) {
    const auto target = static_cast<std::size_t>(nodes);
    network = std::make_unique<net::TieredNetwork>(
        topology == "fat-tree"
            ? net::make_fat_tree(fat_tree_fanout(target))
            : net::make_geo_tiers(geo_racks(target), 4, 4));
    synth.nodes = network->topology.node_count();
    const std::size_t cache_rows = std::max<std::uint64_t>(1, row_cache);
    if (provider == "rows") {
      comm_provider = std::make_shared<net::RowCostProvider>(
          network->topology, cache_rows);
    } else if (provider == "implicit") {
      comm_provider = std::make_shared<net::HierarchicalCostProvider>(
          network->spec, cache_rows);
    }
  }

  // K-ladder: decades from 1000 up to (and always including) --objects,
  // skipping rungs with K < 10·N. Below that, headroom spread over more
  // nodes than the catalog can fill leaves per-node capacity at a handful
  // of object volumes: the price loop degenerates into bin-packing and
  // oscillates to max_rounds while the near-tied inner solves crawl to
  // their iteration cap — a regime the shared-capacity decomposition is
  // not meant to model, and one whose cost explodes with N. Every
  // committed CI configuration has 10·N < 1000, so those ladders keep
  // their exact historical rungs.
  std::vector<std::size_t> ladder;
  const std::size_t k_floor =
      std::max<std::size_t>(1000, 10 * synth.nodes);
  for (std::size_t k = 1000; k < objects; k *= 10) {
    if (k >= k_floor) {
      ladder.push_back(k);
    }
  }
  if (ladder.empty() || ladder.back() != objects) {
    ladder.push_back(static_cast<std::size_t>(objects));
  }

  util::Table table({"objects", "rounds", "price converged", "residual",
                     "pre-repair residual", "repair moves",
                     "inner iters (final)", "unconverged", "hit rate",
                     "external traffic", "mean fragments"},
                    12);

  // One cache across the ladder: the topology depends only on
  // (nodes, seed), so every rung past the first reuses the APSP matrix.
  net::CostMatrixCache cache;
  const std::uint64_t master_seed = bench::seed(1);
  for (const std::size_t k : ladder) {
    synth.objects = k;
    const catalog::CatalogSpec spec =
        comm_provider != nullptr
            ? catalog::make_synthetic_catalog(synth, master_seed,
                                              comm_provider)
            : tiered
                  ? catalog::make_synthetic_catalog(
                        synth, master_seed, *cache.get(network->topology))
                  : catalog::make_synthetic_catalog(synth, master_seed,
                                                    cache);

    catalog::CatalogOptions options;
    if (inner_iters > 0) {
      options.inner.max_iterations = static_cast<std::size_t>(inner_iters);
    }
    options.jobs = bench::jobs();
    options.base_seed = master_seed;
    options.metrics = bench::metrics();
    options.run_id = "catalog_scale.K" + std::to_string(k);
    const catalog::CatalogSolver solver(spec, options);

    const auto t0 = std::chrono::steady_clock::now();
    const catalog::CatalogResult result = solver.solve();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    std::cerr << "K=" << k << " nodes=" << synth.nodes
              << " solve_s=" << elapsed.count()
              << " rounds=" << result.rounds
              << " residual=" << result.residual << "\n";

    table.add_row({static_cast<long long>(k),
                   static_cast<long long>(result.rounds),
                   static_cast<long long>(result.price_converged ? 1 : 0),
                   result.residual, result.pre_repair_residual,
                   static_cast<long long>(result.repair_moves),
                   static_cast<long long>(result.inner_iterations),
                   static_cast<long long>(result.unconverged_objects),
                   result.hit_rate, result.external_traffic,
                   result.mean_fragments});
  }
  std::cout << bench::render(table) << '\n';
  return 0;
}
