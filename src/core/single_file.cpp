#include "core/single_file.hpp"

#include <algorithm>
#include <cmath>

#include "net/generators.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace fap::core {

double Workload::total() const noexcept {
  return util::sum(lambda);
}

Workload Workload::uniform(std::size_t n, double total) {
  FAP_EXPECTS(n >= 1, "workload needs at least one node");
  FAP_EXPECTS(total > 0.0, "total access rate must be positive");
  return Workload{std::vector<double>(n, total / static_cast<double>(n))};
}

Workload QueryUpdateWorkload::combined() const {
  FAP_EXPECTS(query_rate.size() == update_rate.size(),
              "query/update rate vectors must have equal size");
  Workload w;
  w.lambda.resize(query_rate.size());
  for (std::size_t i = 0; i < query_rate.size(); ++i) {
    FAP_EXPECTS(query_rate[i] >= 0.0 && update_rate[i] >= 0.0,
                "rates must be non-negative");
    w.lambda[i] = query_rate[i] + update_rate[i];
  }
  return w;
}

std::vector<double> QueryUpdateWorkload::comm_weight_rates() const {
  FAP_EXPECTS(query_rate.size() == update_rate.size(),
              "query/update rate vectors must have equal size");
  FAP_EXPECTS(query_comm_weight >= 0.0 && update_comm_weight >= 0.0,
              "communication weights must be non-negative");
  std::vector<double> omega(query_rate.size());
  for (std::size_t i = 0; i < omega.size(); ++i) {
    omega[i] =
        query_comm_weight * query_rate[i] + update_comm_weight * update_rate[i];
  }
  return omega;
}

SingleFileProblem make_problem(const net::Topology& topology,
                               const Workload& workload, double mu, double k,
                               queueing::DelayModel delay) {
  FAP_EXPECTS(workload.lambda.size() == topology.node_count(),
              "workload size must match node count");
  SingleFileProblem problem;
  problem.comm = net::all_pairs_shortest_paths(topology);
  problem.lambda = workload.lambda;
  problem.mu.assign(topology.node_count(), mu);
  problem.k = k;
  problem.delay = delay;
  return problem;
}

SingleFileProblem make_problem(const net::Topology& topology,
                               const Workload& workload, double mu, double k,
                               net::CostMatrixCache& cache,
                               queueing::DelayModel delay) {
  FAP_EXPECTS(workload.lambda.size() == topology.node_count(),
              "workload size must match node count");
  SingleFileProblem problem;
  problem.comm = *cache.get(topology);
  problem.lambda = workload.lambda;
  problem.mu.assign(topology.node_count(), mu);
  problem.k = k;
  problem.delay = delay;
  return problem;
}

SingleFileProblem make_problem(std::shared_ptr<const net::CostProvider> comm,
                               const Workload& workload, double mu, double k,
                               queueing::DelayModel delay) {
  FAP_EXPECTS(comm != nullptr, "provider overload needs a provider");
  FAP_EXPECTS(workload.lambda.size() == comm->node_count(),
              "workload size must match node count");
  const std::size_t n = comm->node_count();
  SingleFileProblem problem{net::CostMatrix(0),
                            workload.lambda,
                            std::vector<double>(n, mu),
                            k,
                            delay,
                            {},
                            {},
                            {},
                            std::move(comm)};
  return problem;
}

SingleFileProblem make_paper_ring_problem() {
  const net::Topology ring = net::make_ring(4, 1.0);
  return make_problem(ring, Workload::uniform(4, 1.0), /*mu=*/1.5, /*k=*/1.0);
}

SingleFileProblem make_paper_ring_problem(net::CostMatrixCache& cache) {
  const net::Topology ring = net::make_ring(4, 1.0);
  return make_problem(ring, Workload::uniform(4, 1.0), /*mu=*/1.5, /*k=*/1.0,
                      cache);
}

SingleFileModel::SingleFileModel(SingleFileProblem problem)
    : problem_(std::move(problem)) {
  const std::size_t n = problem_.lambda.size();
  FAP_EXPECTS(n >= 1, "problem needs at least one node");
  const bool overridden = !problem_.access_cost_override.empty();
  const bool has_provider = problem_.comm_provider != nullptr;
  if (has_provider) {
    FAP_EXPECTS(problem_.comm_provider->node_count() == n,
                "cost provider size must match node count");
  }
  if (overridden) {
    FAP_EXPECTS(problem_.access_cost_override.size() == n,
                "access cost override must match node count");
    FAP_EXPECTS(problem_.comm.node_count() == 0 ||
                    problem_.comm.node_count() == n,
                "cost matrix size must match node count");
  } else {
    FAP_EXPECTS(problem_.comm.node_count() == n ||
                    (has_provider && problem_.comm.node_count() == 0),
                "need a full cost matrix or a cost provider");
  }
  FAP_EXPECTS(problem_.mu.size() == n, "mu size must match node count");
  FAP_EXPECTS(problem_.k >= 0.0, "k must be non-negative");
  for (const double rate : problem_.lambda) {
    FAP_EXPECTS(rate >= 0.0, "access rates must be non-negative");
  }
  total_rate_ = util::sum(problem_.lambda);
  FAP_EXPECTS(total_rate_ > 0.0, "network-wide access rate must be positive");
  for (const double mu : problem_.mu) {
    FAP_EXPECTS(mu > 0.0, "service rates must be positive");
    if (problem_.delay.rho_max() >= 1.0) {
      // With x_i <= 1 the arrival rate at any node is at most λ, so λ < μ_i
      // (the paper's μ > λ assumption) keeps every queue in the pure-model
      // regime.
      FAP_EXPECTS(total_rate_ < problem_.delay.capacity(mu),
                  "stability requires λ below every node's service "
                  "capacity (or a linearized delay model, see DelayModel "
                  "rho_max)");
    }
  }

  if (!problem_.storage_capacity.empty()) {
    FAP_EXPECTS(problem_.storage_capacity.size() == n,
                "storage capacities must match node count");
    double capacity_total = 0.0;
    for (const double cap : problem_.storage_capacity) {
      FAP_EXPECTS(cap >= 0.0, "storage capacities must be non-negative");
      capacity_total += cap;
    }
    FAP_EXPECTS(capacity_total >= 1.0 - 1e-9,
                "total storage capacity must hold at least one whole file");
  }

  if (overridden) {
    access_cost_ = problem_.access_cost_override;
    return;
  }

  // ω defaults to λ: the base model does not distinguish queries/updates.
  const std::vector<double>& omega = problem_.comm_weight_rates.empty()
                                         ? problem_.lambda
                                         : problem_.comm_weight_rates;
  FAP_EXPECTS(omega.size() == n, "comm weight rates must match node count");

  // C_i = Σ_j (ω_j / λ) c_ji. Accumulated row-major (j outer) through the
  // unchecked row accessor: per destination i the additions still happen in
  // increasing j, so the totals are bit-identical to the column-major
  // double loop, but each row of the O(n²) matrix is walked contiguously
  // and without per-element bounds checks. The provider branch streams the
  // identical rows in the identical order (providers return bit-equal rows
  // by contract), so both branches produce the same bytes; it just never
  // materializes the n×n matrix.
  access_cost_.assign(n, 0.0);
  const bool dense = problem_.comm.node_count() == n;
  for (std::size_t j = 0; j < n; ++j) {
    const double weight = omega[j];
    net::CostRow provider_row;
    const double* row;
    if (dense) {
      row = problem_.comm.row(j);
    } else {
      provider_row = problem_.comm_provider->row(j);
      row = provider_row.data();
    }
    for (std::size_t i = 0; i < n; ++i) {
      access_cost_[i] += weight * row[i];
    }
  }
  for (double& c : access_cost_) {
    c /= total_rate_;
  }
}

std::vector<ConstraintGroup> SingleFileModel::constraint_groups() const {
  ConstraintGroup group;
  group.indices.resize(dimension());
  for (std::size_t i = 0; i < group.indices.size(); ++i) {
    group.indices[i] = i;
  }
  group.total = 1.0;
  return {group};
}

double SingleFileModel::cost(const std::vector<double>& x) const {
  FAP_EXPECTS(x.size() == dimension(), "allocation has wrong dimension");
  double total = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] == 0.0) {
      continue;  // zero fragment contributes zero cost regardless of T_i
    }
    const double a = total_rate_ * x[i];
    total +=
        x[i] * (access_cost_[i] +
                problem_.k * problem_.delay.sojourn(a, problem_.mu[i]));
  }
  return total;
}

std::vector<double> SingleFileModel::gradient(
    const std::vector<double>& x) const {
  std::vector<double> grad;
  gradient_into(x, grad);
  return grad;
}

void SingleFileModel::gradient_into(const std::vector<double>& x,
                                    std::vector<double>& out) const {
  FAP_EXPECTS(x.size() == dimension(), "allocation has wrong dimension");
  out.assign(x.size(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double a = total_rate_ * x[i];
    const double mu = problem_.mu[i];
    // d/dx [ x (C_i + k T(λx)) ] = C_i + k T(λx) + k λ x T'(λx)
    out[i] = access_cost_[i] +
             problem_.k * (problem_.delay.sojourn(a, mu) +
                           a * problem_.delay.d_sojourn(a, mu));
  }
}

std::vector<double> SingleFileModel::second_derivative(
    const std::vector<double>& x) const {
  std::vector<double> hess;
  second_derivative_into(x, hess);
  return hess;
}

void SingleFileModel::second_derivative_into(const std::vector<double>& x,
                                             std::vector<double>& out) const {
  FAP_EXPECTS(x.size() == dimension(), "allocation has wrong dimension");
  out.assign(x.size(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double a = total_rate_ * x[i];
    const double mu = problem_.mu[i];
    // d²/dx² = λ (2 k T'(λx) + k λ x T''(λx))
    out[i] = total_rate_ * problem_.k *
             (2.0 * problem_.delay.d_sojourn(a, mu) +
              a * problem_.delay.d2_sojourn(a, mu));
  }
}

double SingleFileModel::access_cost(std::size_t i) const {
  FAP_EXPECTS(i < access_cost_.size(), "node id out of range");
  return access_cost_[i];
}

DerivativeBounds SingleFileModel::derivative_bounds() const {
  FAP_EXPECTS(problem_.delay.discipline() == queueing::Discipline::kMM1 &&
                  problem_.delay.rho_max() >= 1.0,
              "the appendix bounds are derived for the pure M/M/1 model");
  const double mu = *std::min_element(problem_.mu.begin(), problem_.mu.end());
  FAP_EXPECTS(total_rate_ < mu, "appendix bounds require λ < μ");
  const auto [c_min_it, c_max_it] =
      std::minmax_element(access_cost_.begin(), access_cost_.end());
  DerivativeBounds b;
  b.c_min = *c_min_it;
  b.c_max = *c_max_it;
  const double lambda = total_rate_;
  const double k = problem_.k;
  const double gap = mu - lambda;
  b.grad_min = b.c_min + k / mu;
  b.grad_max = b.c_max + mu * k / (gap * gap);
  b.hess_max = 2.0 * mu * k * lambda / (gap * gap * gap);
  return b;
}

double SingleFileModel::theorem2_alpha_bound(double epsilon) const {
  FAP_EXPECTS(epsilon > 0.0, "epsilon must be positive");
  const DerivativeBounds b = derivative_bounds();
  const double mu = *std::min_element(problem_.mu.begin(), problem_.mu.end());
  const double lambda = total_rate_;
  const double k = problem_.k;
  const double n = static_cast<double>(dimension());
  const double gap = mu - lambda;
  const double inner =
      (b.c_max - b.c_min) * mu * gap + lambda * k * (2.0 * mu - lambda);
  FAP_ENSURES(inner > 0.0, "theorem-2 denominator term must be positive");
  return epsilon * epsilon * gap * gap * gap * gap /
         (2.0 * n * k * lambda * inner * inner);
}

}  // namespace fap::core
