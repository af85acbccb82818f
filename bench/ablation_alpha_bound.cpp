// Ablation A1: step-size regimes. The Theorem-2 bound guarantees
// convergence but is "too small to be of any real significance" in
// practice (Section 8.2); the dynamic per-iteration bound (appendix
// remark) is competitive with the empirically best fixed α.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/allocator.hpp"
#include "core/batch_allocator.hpp"
#include "core/single_file.hpp"
#include "net/generators.hpp"
#include "runtime/sweep.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

struct Regime {
  std::string name;
  fap::core::AllocationResult result;
};

}  // namespace

int main(int argc, char** argv) {
  fap::bench::init(argc, argv);
  using namespace fap;
  bench::print_header("Ablation A1",
                      "theoretical vs empirical vs dynamic step sizes");

  const core::SingleFileModel model(core::make_paper_ring_problem());
  const std::vector<double> start{0.8, 0.1, 0.1, 0.0};
  const double epsilon = 1e-3;
  const double theorem2 = model.theorem2_alpha_bound(epsilon);
  std::cout << "Theorem-2 guaranteed bound on alpha (eps = 0.001): "
            << theorem2 << "\n\n";

  auto run_fixed = [&](double alpha, std::size_t cap) {
    core::AllocatorOptions options;
    options.alpha = alpha;
    options.epsilon = epsilon;
    options.max_iterations = cap;
    options.record_trace = true;
    return core::ResourceDirectedAllocator(model, options).run(start);
  };

  // Empirically fastest fixed α via grid search. The 60 probes are
  // independent runs on the same model, so they run as one BatchAllocator
  // queue — trace-free, which does not perturb the score (iteration counts
  // are unaffected by tracing); the winning α is re-run serially with its
  // trace for the table below.
  const std::vector<double> grid_alphas = util::grid_points(0.02, 1.2, 60);
  std::vector<double> grid_scores;
  {
    core::BatchAllocator batch;
    for (const double alpha : grid_alphas) {
      core::AllocatorOptions options;
      options.alpha = alpha;
      options.epsilon = epsilon;
      options.max_iterations = 20000;
      batch.submit(model, options, start);
    }
    for (const core::BatchRunResult& result : batch.run_all()) {
      grid_scores.push_back(
          result.converged ? static_cast<double>(result.iterations) : 1e9);
    }
  }
  const util::GridMinimum best_alpha =
      util::grid_select(grid_alphas, grid_scores);

  core::AllocatorOptions dynamic_options;
  dynamic_options.alpha = 0.1;
  dynamic_options.step_rule = core::StepRule::kDynamic;
  dynamic_options.epsilon = epsilon;
  dynamic_options.record_trace = true;
  const auto dynamic_result =
      core::ResourceDirectedAllocator(model, dynamic_options).run(start);

  // The theorem-2 α converges monotonically but glacially; cap the run and
  // report cost progress instead of waiting for full convergence.
  const auto theorem_result = run_fixed(theorem2, 2000);

  util::Table table({"regime", "alpha", "iterations", "converged",
                     "final cost", "monotone"},
                    6);
  auto monotone = [](const core::AllocationResult& result) {
    for (std::size_t t = 1; t < result.trace.size(); ++t) {
      if (result.trace[t].cost > result.trace[t - 1].cost + 1e-12) {
        return 0LL;
      }
    }
    return 1LL;
  };
  const auto fixed_best = run_fixed(best_alpha.x, 20000);
  table.add_row({std::string("theorem-2 bound (2000-iter cap)"), theorem2,
                 static_cast<long long>(theorem_result.iterations),
                 static_cast<long long>(theorem_result.converged ? 1 : 0),
                 theorem_result.cost, monotone(theorem_result)});
  table.add_row({std::string("best fixed alpha (grid search)"), best_alpha.x,
                 static_cast<long long>(fixed_best.iterations),
                 static_cast<long long>(fixed_best.converged ? 1 : 0),
                 fixed_best.cost, monotone(fixed_best)});
  table.add_row({std::string("dynamic alpha (appendix remark)"), 0.0,
                 static_cast<long long>(dynamic_result.iterations),
                 static_cast<long long>(dynamic_result.converged ? 1 : 0),
                 dynamic_result.cost, monotone(dynamic_result)});
  std::cout << bench::render(table) << '\n';

  // Dynamic rule across random problems: always converges, competitive
  // iteration counts without any tuning.
  util::Table random_table({"seed", "nodes", "dynamic iters", "fixed-0.1 iters",
                            "same optimum"},
                           4);
  // Each seed is an independent experiment: fan out through the runtime
  // (order and output independent of --jobs). The generator seed stays the
  // historical 1..6 sequence — derived from the item index, not the task
  // seed — so the table is byte-identical to the serial original.
  struct RandomRow {
    std::size_t nodes = 0;
    core::AllocationResult dynamic_run;
    core::AllocationResult fixed_run;
  };
  const std::vector<RandomRow> rows = runtime::sweep(
      6, bench::sweep_options("ablation_alpha_bound"),
      [&](std::size_t index, std::uint64_t /*task_seed*/) {
        const std::uint64_t seed = index + 1;
        util::Rng rng(seed);
        const net::Topology topology =
            net::make_erdos_renyi(6 + seed % 5, 0.5, 0.5, 2.0, rng);
        const std::size_t n = topology.node_count();
        const core::SingleFileModel random_model(core::make_problem(
            topology, core::Workload::uniform(n, 1.0), /*mu=*/1.6,
            /*k=*/1.0));
        std::vector<double> x0(n, 0.0);
        x0[0] = 1.0;

        core::AllocatorOptions dyn;
        dyn.step_rule = core::StepRule::kDynamic;
        dyn.epsilon = 1e-4;
        dyn.max_iterations = 50000;
        core::AllocationResult dynamic_run =
            core::ResourceDirectedAllocator(random_model, dyn).run(x0);

        core::AllocatorOptions fixed;
        fixed.alpha = 0.1;
        fixed.epsilon = 1e-4;
        fixed.max_iterations = 50000;
        core::AllocationResult fixed_run =
            core::ResourceDirectedAllocator(random_model, fixed).run(x0);
        return RandomRow{n, std::move(dynamic_run), std::move(fixed_run)};
      });
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RandomRow& row = rows[seed - 1];
    random_table.add_row(
        {static_cast<long long>(seed), static_cast<long long>(row.nodes),
         static_cast<long long>(row.dynamic_run.iterations),
         static_cast<long long>(row.fixed_run.iterations),
         static_cast<long long>(
             std::fabs(row.dynamic_run.cost - row.fixed_run.cost) < 1e-3
                 ? 1
                 : 0)});
  }
  std::cout << bench::render(random_table);
  return 0;
}
