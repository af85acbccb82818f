// catalog_contended / catalog_bulk: price-decomposed catalog solves on
// the bench/catalog_scale network (100-node random metric, dense matrix,
// 25% headroom, Zipf 0.9, 50% locality), at K = 10^3 or 10^5 objects.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog_solver.hpp"
#include "catalog/catalog_spec.hpp"
#include "core/batch_allocator.hpp"
#include "core/single_file.hpp"
#include "net/cost_cache.hpp"
#include "net/generators.hpp"
#include "runtime/metrics.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using fap::catalog::CatalogResult;
using fap::catalog::CatalogSolver;
using fap::catalog::CatalogSpec;

constexpr std::size_t kNodes = 100;
constexpr double kResidualLimit = 1e-9;
constexpr double kRowSumTolerance = 1e-12;
constexpr double kCapacitySlack = 1e-9;

/// Set-up repetitions: ~0.2 s of set-up at either catalog size (about
/// 2 ms per build at K = 10^3, 10 ms at K = 10^5).
std::size_t setup_repeats(std::size_t objects) {
  return objects <= 1000 ? 100 : 20;
}

fap::catalog::SyntheticCatalogOptions synthetic_options(std::size_t objects) {
  fap::catalog::SyntheticCatalogOptions synth;
  synth.objects = objects;
  synth.nodes = kNodes;
  synth.headroom = 0.25;
  synth.zipf_s = 0.9;
  synth.locality = 0.5;
  return synth;
}

fap::catalog::CatalogOptions solver_options(std::uint64_t seed,
                                            std::size_t objects) {
  fap::catalog::CatalogOptions options;
  options.jobs = 1;
  options.base_seed = seed;
  options.run_id = "perfbench.catalog.K" + std::to_string(objects);
  return options;
}

/// Spec and solver; the solver keeps a reference to the spec, so both
/// live behind one pointer and never move.
struct Problem {
  CatalogSpec spec;
  std::optional<CatalogSolver> solver;
};

/// The network every catalog run uses, whatever its seed: the random
/// metric bench/catalog_scale builds at its default seed 1, rebuilt here
/// (first split of the seed's stream, three nearest neighbours).
fap::net::Topology catalog_network() {
  constexpr std::uint64_t kNetworkSeed = 1;
  fap::util::Rng rng(kNetworkSeed);
  fap::util::Rng topo_rng = rng.split();
  return fap::net::make_random_metric(kNodes, 3, topo_rng);
}

/// The seed draws the catalog (origin mix, volumes, homes) on the fixed
/// network; at seed 1 this is exactly bench/catalog_scale's instance.
std::unique_ptr<Problem> build(std::uint64_t seed, std::size_t objects,
                               fap::net::CostMatrixCache& cache) {
  auto problem = std::make_unique<Problem>();
  problem->spec = fap::catalog::make_synthetic_catalog(
      synthetic_options(objects), seed, *cache.get(catalog_network()));
  problem->solver.emplace(problem->spec, solver_options(seed, objects));
  return problem;
}

bool same_result(const CatalogResult& a, const CatalogResult& b) {
  if (a.offsets != b.offsets || a.placements.size() != b.placements.size() ||
      a.prices.size() != b.prices.size() || a.rounds != b.rounds ||
      a.repair_moves != b.repair_moves ||
      a.inner_iterations != b.inner_iterations ||
      !bits_equal(a.residual, b.residual)) {
    return false;
  }
  for (std::size_t p = 0; p < a.placements.size(); ++p) {
    if (a.placements[p].node != b.placements[p].node ||
        !bits_equal(a.placements[p].fraction, b.placements[p].fraction)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.prices.size(); ++i) {
    if (!bits_equal(a.prices[i], b.prices[i]) ||
        !bits_equal(a.node_load[i], b.node_load[i])) {
      return false;
    }
  }
  return true;
}

/// The correctness gate of one solve: the capacity residual, every
/// object's fractions summing to one, and every node's load — as
/// reported and as recomputed from the placements — within its budget.
std::vector<std::string> check(const CatalogSpec& spec,
                               const CatalogResult& r) {
  std::vector<std::string> problems;
  const std::size_t n = spec.node_count();
  const std::size_t count = spec.object_count();
  if (!(r.residual <= kResidualLimit)) {
    problems.push_back("residual " + std::to_string(r.residual));
  }
  if (r.offsets.size() != count + 1 || r.node_load.size() != n ||
      r.offsets.back() != r.placements.size()) {
    problems.push_back("result has the wrong shape");
    return problems;
  }
  std::vector<double> load(n, 0.0);
  std::size_t bad_rows = 0;
  for (std::size_t o = 0; o < count; ++o) {
    double total = 0.0;
    for (std::uint32_t p = r.offsets[o]; p < r.offsets[o + 1]; ++p) {
      const fap::catalog::Placement& placement = r.placements[p];
      if (placement.node >= n || !(placement.fraction >= 0.0)) {
        ++bad_rows;
        continue;
      }
      total += placement.fraction;
      load[placement.node] += spec.volume[o] * placement.fraction;
    }
    if (!(std::abs(total - 1.0) <= kRowSumTolerance)) {
      ++bad_rows;
    }
  }
  if (bad_rows > 0) {
    problems.push_back(std::to_string(bad_rows) +
                       " objects whose fractions do not sum to 1");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double budget = spec.node_capacity[i] * (1.0 + kCapacitySlack);
    if (!(r.node_load[i] <= budget) || !(load[i] <= budget)) {
      problems.push_back("node " + std::to_string(i) + " over budget");
    }
  }
  return problems;
}

/// Σ_o of the Eq. 1 cost of object o's returned allocation at zero
/// prices: the single-file model of the object, fed the solver's own
/// unpriced access-cost vector, evaluated at the returned fractions.
double primal_cost(const CatalogSpec& spec, const CatalogSolver& solver,
                   const CatalogResult& r) {
  const std::size_t n = spec.node_count();
  const std::vector<double> zero_prices(n, 0.0);
  double total = 0.0;
  std::vector<double> x(n);
  for (std::size_t o = 0; o < spec.object_count(); ++o) {
    std::vector<double> lambda(n, 0.0);
    lambda[spec.home[o]] = spec.rate[o];
    fap::core::SingleFileProblem problem{
        fap::net::CostMatrix(0),
        std::move(lambda),
        spec.mu,
        spec.k,
        spec.delay,
        {},
        {},
        solver.object_access_cost(o, zero_prices),
        nullptr};
    const fap::core::SingleFileModel model(std::move(problem));
    std::fill(x.begin(), x.end(), 0.0);
    for (std::uint32_t p = r.offsets[o]; p < r.offsets[o + 1]; ++p) {
      x[r.placements[p].node] += r.placements[p].fraction;
    }
    total += model.cost(x);
  }
  return total;
}

/// Solves once, counting the solve and any gate violation.
std::optional<CatalogResult> solve_checked(const CatalogSpec& spec,
                                           const CatalogSolver& solver,
                                           Tracer* tracer, double& wall_s,
                                           RunResult& out) {
  ++out.attempted;
  std::optional<CatalogResult> result;
  try {
    wall_s = timed(tracer, "catalog.solve", [&] { result = solver.solve(); });
  } catch (const std::exception& e) {
    ++out.failed;
    out.violation(std::string("solve threw: ") + e.what());
    return std::nullopt;
  }
  const std::vector<std::string> problems = check(spec, *result);
  if (!problems.empty()) {
    ++out.failed;
    for (const std::string& p : problems) {
      out.violation(p);
    }
  }
  return result;
}

struct TaskTotals {
  std::size_t tasks = 0;
  double wall_s = 0.0;
};

/// Sums the sweep-task records of the solver's metrics JSONL.
TaskTotals read_task_metrics(const std::string& path) {
  TaskTotals totals;
  std::ifstream in(path);
  std::string line;
  const std::string key = "\"wall_ms\":";
  while (std::getline(in, line)) {
    const std::size_t at = line.find(key);
    if (at == std::string::npos) {
      continue;
    }
    ++totals.tasks;
    totals.wall_s += std::strtod(line.c_str() + at + key.size(), nullptr) /
                     1000.0;
  }
  return totals;
}

struct BatchReplay {
  std::size_t instances = 0;
  std::size_t lockstep_iterations = 0;
  std::size_t lane_slots = 0;  ///< Σ lockstep iterations × batch width
  std::size_t lane_iterations = 0;
  std::size_t unconverged = 0;
  double assemble_s = 0.0;
  double batch_s = 0.0;
};

/// One round of inner solves at `prices`, the way the solver feeds them:
/// 64-object batches, each object assembled, started and submitted, then
/// run_all. Assembly and batch work are separate spans per batch.
BatchReplay replay_round(const Problem& problem,
                         const std::vector<double>& prices, Tracer& tracer) {
  const CatalogSpec& spec = problem.spec;
  const CatalogSolver& solver = *problem.solver;
  const std::size_t n = spec.node_count();
  const std::size_t count = spec.object_count();
  const std::size_t width = solver.options().batch_width;
  BatchReplay replay;
  std::vector<std::vector<double>> access(width);
  std::vector<std::vector<double>> start(width);
  for (std::size_t first = 0; first < count; first += width) {
    const std::size_t size = std::min(width, count - first);
    replay.assemble_s += timed(&tracer, "catalog.assemble", [&] {
      for (std::size_t b = 0; b < size; ++b) {
        access[b] = solver.object_access_cost(first + b, prices);
        start[b] = solver.object_start(first + b, prices);
      }
    });
    fap::core::BatchAllocator batch(size);
    std::vector<fap::core::BatchRunResult> results;
    replay.batch_s += timed(&tracer, "core.batch", [&] {
      for (std::size_t b = 0; b < size; ++b) {
        fap::core::BatchAllocator::RawInstance raw;
        raw.n = n;
        raw.total_rate = spec.rate[first + b];
        raw.k = spec.k;
        raw.delay = spec.delay;
        raw.access_cost = access[b].data();
        raw.mu = spec.mu.data();
        raw.start = start[b].data();
        batch.submit(raw, solver.options().inner);
      }
      results = batch.run_all();
    });
    replay.instances += batch.stats().instances;
    replay.lockstep_iterations += batch.stats().lockstep_iterations;
    replay.lane_slots += batch.stats().lockstep_iterations * size;
    for (const fap::core::BatchRunResult& run : results) {
      replay.lane_iterations += run.iterations;
      replay.unconverged += run.converged ? 0 : 1;
    }
  }
  return replay;
}

void report_traced(const RunConfig& config, std::size_t objects,
                   RunResult& out) {
  const std::string run_id = "catalog.K" + std::to_string(objects) +
                             ".seed" + std::to_string(config.seed) +
                             ".traced";
  Tracer tracer(run_id);

  fap::net::CostMatrixCache cache;
  std::unique_ptr<Problem> problem;
  {
    const Tracer::Scope setup(tracer, "setup");
    const fap::net::Topology topology = catalog_network();
    timed(&tracer, "net.apsp", [&] { cache.get(topology); });
    timed(&tracer, "catalog.build",
          [&] { problem = build(config.seed, objects, cache); });
  }

  // Passes repeat while the budget allows; every timing is the median
  // over passes. A pass solves untraced, then traced with the solver's
  // task metrics attached (the difference is the tracing overhead), and
  // replays one round of inner solves at the final prices.
  const std::string metrics_path =
      config.scratch_dir + "/" + run_id + ".tasks.jsonl";
  std::vector<double> untraced_s, traced_s, task_busy_s, assemble_s, batch_s;
  std::optional<CatalogResult> first;
  TaskTotals tasks;
  BatchReplay replay;
  const auto start = std::chrono::steady_clock::now();
  double pass_s = 0.0;
  for (std::size_t pass = 0;
       another_call(start, pass, 1, pass_s, config.seconds); ++pass) {
    const auto pass_start = std::chrono::steady_clock::now();
    double wall = 0.0;
    const std::optional<CatalogResult> untraced =
        solve_checked(problem->spec, *problem->solver, nullptr, wall, out);
    if (!untraced) {
      return;
    }
    untraced_s.push_back(wall);
    if (pass == 0) {
      out.set("process.peak_rss_mb", peak_rss_mb());
    }

    std::optional<CatalogResult> traced;
    {
      fap::runtime::MetricsSink sink(metrics_path);  // closed before reading
      fap::catalog::CatalogOptions options =
          solver_options(config.seed, objects);
      options.metrics = &sink;
      const CatalogSolver traced_solver(problem->spec, options);
      traced = solve_checked(problem->spec, traced_solver, &tracer, wall, out);
    }
    if (!traced) {
      return;
    }
    traced_s.push_back(wall);
    if (!same_result(*untraced, *traced) ||
        (first && !same_result(*first, *traced))) {
      ++out.failed;
      out.violation("traced solve differs from the untraced one");
    }
    tasks = read_task_metrics(metrics_path);
    task_busy_s.push_back(tasks.wall_s);

    {
      const Tracer::Scope round(tracer, "replay.round");
      replay = replay_round(*problem, traced->prices, tracer);
    }
    assemble_s.push_back(replay.assemble_s);
    batch_s.push_back(replay.batch_s);
    if (!first) {
      first = std::move(traced);
    }
    pass_s = seconds_since(pass_start);
  }

  const CatalogResult& r = *first;
  const double solve_s = median(traced_s);
  out.set("core.batch.busy_s", median(batch_s));
  out.set("core.batch.instances", static_cast<double>(replay.instances));
  out.set("core.batch.lockstep_iterations",
          static_cast<double>(replay.lockstep_iterations));
  out.set("core.batch.lane_iterations",
          static_cast<double>(replay.lane_iterations));
  out.set("core.batch.lane_utilization",
          replay.lane_slots > 0 ? static_cast<double>(replay.lane_iterations) /
                                      static_cast<double>(replay.lane_slots)
                                : 0.0);
  out.set("core.batch.unconverged", static_cast<double>(replay.unconverged));
  out.set("catalog.assemble.busy_s", median(assemble_s));
  out.set("catalog.rounds", static_cast<double>(r.rounds));
  out.set("catalog.price.oscillations", static_cast<double>(r.oscillations));
  out.set("catalog.price.converged", r.price_converged ? 1.0 : 0.0);
  out.set("catalog.pre_repair_residual", r.pre_repair_residual);
  out.set("catalog.repair.moves", static_cast<double>(r.repair_moves));
  out.set("catalog.final_round_iterations",
          static_cast<double>(r.inner_iterations));
  out.set("catalog.unconverged_objects",
          static_cast<double>(r.unconverged_objects));
  out.set("runtime.sweep.tasks", static_cast<double>(tasks.tasks));
  out.set("runtime.sweep.task_busy_s", median(task_busy_s));
  out.set("catalog.serial_s", solve_s - median(task_busy_s));
  out.set("catalog.solve_s", solve_s);
  out.set("catalog.primal_cost",
          primal_cost(problem->spec, *problem->solver, r));
  out.set("net.apsp.busy_s", tracer.total_s("net.apsp"));
  out.set("trace.overhead_s", solve_s - median(untraced_s));
  out.spans_json = tracer.to_json();
}

}  // namespace

RunResult run_catalog(const RunConfig& config, std::size_t objects) {
  RunResult out;
  if (config.trace) {
    report_traced(config, objects, out);
    return out;
  }

  std::unique_ptr<Problem> problem;
  const double setup_s = median_setup_s(setup_repeats(objects), [&] {
    problem.reset();
    fap::net::CostMatrixCache cache;  // cold: set-up includes the APSP
    problem = build(config.seed, objects, cache);
  });

  std::vector<double> solve_s;
  std::optional<CatalogResult> first;
  const auto start = std::chrono::steady_clock::now();
  // At least two solves: the bitwise-repeat check needs a pair, and one
  // K = 10^3 solve (~20 s) is a single draw of the machine's speed.
  while (another_call(start, solve_s.size(), 2,
                      solve_s.empty() ? 0.0 : solve_s.back(),
                      config.seconds)) {
    double wall = 0.0;
    std::optional<CatalogResult> result =
        solve_checked(problem->spec, *problem->solver, nullptr, wall, out);
    if (!result) {
      break;
    }
    solve_s.push_back(wall);
    if (!first) {
      first = std::move(result);
    } else if (!same_result(*first, *result)) {
      ++out.failed;
      out.violation("solve result differs between repetitions");
    }
  }

  out.set("setup_s", setup_s);
  if (first) {
    out.set("wall_s", median(solve_s));
    out.set("access_cost",
            primal_cost(problem->spec, *problem->solver, *first));
  }
  return out;
}

std::string catalog_table(std::uint64_t seed, std::size_t objects) {
  fap::net::CostMatrixCache cache;
  const std::unique_ptr<Problem> problem = build(seed, objects, cache);
  const CatalogResult result = problem->solver->solve();
  fap::util::Table table({"objects", "rounds", "price converged", "residual",
                          "pre-repair residual", "repair moves",
                          "inner iters (final)", "unconverged", "hit rate",
                          "external traffic", "mean fragments"},
                         12);
  table.add_row({static_cast<long long>(objects),
                 static_cast<long long>(result.rounds),
                 static_cast<long long>(result.price_converged ? 1 : 0),
                 result.residual, result.pre_repair_residual,
                 static_cast<long long>(result.repair_moves),
                 static_cast<long long>(result.inner_iterations),
                 static_cast<long long>(result.unconverged_objects),
                 result.hit_rate, result.external_traffic,
                 result.mean_fragments});
  return table.to_csv();
}

}  // namespace perfbench
