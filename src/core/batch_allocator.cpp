#include "core/batch_allocator.hpp"

#include <algorithm>
#include <cmath>

#include "core/single_file_loop.hpp"
#include "util/contracts.hpp"

namespace fap::core {

BatchAllocator::BatchAllocator(std::size_t width) : width_(width) {
  FAP_EXPECTS(width >= 1, "batch width must be at least 1");
}

std::size_t BatchAllocator::submit(const SingleFileModel& model,
                                   const AllocatorOptions& options,
                                   std::vector<double> start) {
  // check_feasible also checks start.size() == model.dimension(), which
  // the raw overload cannot: a pointer does not carry its length.
  model.check_feasible(start);
  const SingleFileProblem& problem = model.problem();
  RawInstance raw;
  raw.n = model.dimension();
  raw.total_rate = model.total_rate();
  raw.k = problem.k;
  raw.delay = problem.delay;
  raw.access_cost = model.access_costs().data();
  raw.mu = problem.mu.data();
  raw.caps = problem.storage_capacity.empty()
                 ? nullptr
                 : problem.storage_capacity.data();
  raw.start = start.data();
  return submit(raw, options);
}

std::size_t BatchAllocator::submit(const RawInstance& raw,
                                   const AllocatorOptions& options) {
  // Same validations as the ResourceDirectedAllocator constructor + run().
  FAP_EXPECTS(options.alpha > 0.0, "step size must be positive");
  FAP_EXPECTS(options.epsilon > 0.0, "epsilon must be positive");
  FAP_EXPECTS(options.max_iterations > 0, "need at least one iteration");
  FAP_EXPECTS(options.dynamic_safety > 0.0 && options.dynamic_safety <= 1.0,
              "dynamic_safety must be in (0, 1]");
  FAP_EXPECTS(!options.record_trace,
              "BatchAllocator does not record traces; use the serial "
              "ResourceDirectedAllocator for traced runs");

  // Model-level validations, mirroring the SingleFileModel constructor.
  FAP_EXPECTS(raw.n >= 1, "problem needs at least one node");
  FAP_EXPECTS(raw.access_cost != nullptr && raw.mu != nullptr &&
                  raw.start != nullptr,
              "raw instance needs access costs, service rates and a start");
  FAP_EXPECTS(raw.total_rate > 0.0,
              "network-wide access rate must be positive");
  FAP_EXPECTS(raw.k >= 0.0, "k must be non-negative");
  for (std::size_t i = 0; i < raw.n; ++i) {
    FAP_EXPECTS(raw.mu[i] > 0.0, "service rates must be positive");
    if (raw.delay.rho_max() >= 1.0) {
      FAP_EXPECTS(raw.total_rate < raw.delay.capacity(raw.mu[i]),
                  "stability requires λ below every node's service "
                  "capacity (or a linearized delay model, see DelayModel "
                  "rho_max)");
    }
  }
  if (raw.caps != nullptr) {
    double capacity_total = 0.0;
    for (std::size_t i = 0; i < raw.n; ++i) {
      FAP_EXPECTS(raw.caps[i] >= 0.0, "storage capacities must be "
                                      "non-negative");
      capacity_total += raw.caps[i];
    }
    FAP_EXPECTS(capacity_total >= 1.0 - 1e-9,
                "total storage capacity must hold at least one whole file");
  }

  // Start feasibility, mirroring CostModel::check_feasible (tol 1e-9,
  // one Σ = 1 group).
  constexpr double kTol = 1e-9;
  double start_sum = 0.0;
  for (std::size_t i = 0; i < raw.n; ++i) {
    FAP_EXPECTS(raw.start[i] >= -kTol, "allocation must be non-negative");
    if (raw.caps != nullptr) {
      FAP_EXPECTS(raw.start[i] <= raw.caps[i] + kTol,
                  "allocation exceeds a storage capacity");
    }
    start_sum += raw.start[i];
  }
  FAP_EXPECTS(std::fabs(start_sum - 1.0) <= kTol,
              "allocation violates a resource-conservation constraint");

  Instance inst;
  inst.n = raw.n;
  inst.options = options;
  inst.total_rate = raw.total_rate;
  inst.k = raw.k;
  inst.delay = raw.delay;
  inst.access_cost.assign(raw.access_cost, raw.access_cost + raw.n);
  inst.mu.assign(raw.mu, raw.mu + raw.n);
  if (raw.caps != nullptr) {
    inst.caps.assign(raw.caps, raw.caps + raw.n);
  }
  inst.start.assign(raw.start, raw.start + raw.n);
  pending_.push_back(std::move(inst));
  return pending_.size() - 1;
}

std::vector<BatchRunResult> BatchAllocator::run_all() {
  stats_ = Stats{};
  stats_.instances = pending_.size();
  std::vector<BatchRunResult> results(pending_.size());
  detail::SingleFileScratch scratch;
  std::vector<double> k_t0;
  std::vector<double> two_dt0;
  for (std::size_t id = 0; id < pending_.size(); ++id) {
    const Instance& inst = pending_[id];
    const std::size_t n = inst.n;
    detail::zero_load_tables(n, inst.k, inst.delay, inst.mu.data(), k_t0,
                             two_dt0);
    detail::SingleFileInstance problem;
    problem.n = n;
    problem.rate = inst.total_rate;
    problem.k = inst.k;
    problem.delay = &inst.delay;
    problem.access = inst.access_cost.data();
    problem.mu = inst.mu.data();
    problem.k_t0 = k_t0.data();
    problem.two_dt0 = two_dt0.data();
    scratch.x = inst.start;
    const detail::SingleFileOutcome run = detail::run_single_file_loop(
        problem, inst.caps, inst.options, scratch);

    BatchRunResult& out = results[id];
    out.x = scratch.x;
    out.converged = run.converged;
    out.iterations = run.iterations;
    // SingleFileModel::cost, in node order.
    for (std::size_t j = 0; j < n; ++j) {
      const double xj = out.x[j];
      if (xj == 0.0) {
        continue;  // zero fragment contributes zero cost regardless of T_i
      }
      const double a = inst.total_rate * xj;
      out.cost +=
          xj * (inst.access_cost[j] + inst.k * inst.delay.sojourn(a, inst.mu[j]));
    }
    stats_.lockstep_iterations =
        std::max(stats_.lockstep_iterations,
                 run.iterations + (run.converged ? 1 : 0));
  }
  pending_.clear();
  return results;
}

}  // namespace fap::core
