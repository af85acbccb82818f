#include "core/single_file_loop.hpp"

#include "util/contracts.hpp"

namespace fap::core::detail {

namespace {

// Single-server laws through the inline primitives, which are bit-equal
// to the checked DelayModel entry points (queueing_batch_test pins it).
// Dropping the per-evaluation argument checks is sound only because every
// caller has already established μ_i > 0 and stability (BatchAllocator::
// submit, CatalogSpec::validate) and each step clamps x into [0, cap].
// One gap: a start share inside the feasibility tolerance below 0 is
// evaluated here, where the serial allocator's checked call throws.
struct InlineLaw {
  double scv;
  double rho_max;
  double sojourn(double a, double mu) const {
    return queueing::detail::lin_sojourn(a, mu, scv, rho_max);
  }
  double d_sojourn(double a, double mu) const {
    return queueing::detail::lin_d_sojourn(a, mu, scv, rho_max);
  }
  double d2_sojourn(double a, double mu) const {
    return queueing::detail::lin_d2_sojourn(a, mu, scv, rho_max);
  }
};

// M/M/c: Erlang C has no inline form; use the checked entry points.
struct CheckedLaw {
  const queueing::DelayModel* delay;
  double sojourn(double a, double mu) const { return delay->sojourn(a, mu); }
  double d_sojourn(double a, double mu) const {
    return delay->d_sojourn(a, mu);
  }
  double d2_sojourn(double a, double mu) const {
    return delay->d2_sojourn(a, mu);
  }
};

template <class Law>
SingleFileOutcome run_loop(const SingleFileInstance& inst, const Law& law,
                           const std::vector<double>& caps,
                           const AllocatorOptions& options,
                           SingleFileScratch& s) {
  const std::size_t n = inst.n;
  const bool dynamic = options.step_rule == StepRule::kDynamic;
  const double rate = inst.rate;
  const double k = inst.k;
  const double rate_k = rate * k;

  // The marginal utility (and curvature) of node i at s.x[i], as
  // SingleFileModel computes them; zero-share nodes read the tables.
  const auto refresh = [&](std::size_t i) {
    const double xi = s.x[i];
    if (xi == 0.0) {
      s.du[i] = -(inst.access[i] + inst.k_t0[i]);
      if (dynamic) {
        s.d2c[i] = rate_k * inst.two_dt0[i];
      }
      return;
    }
    const double a = rate * xi;
    const double mu = inst.mu[i];
    const double dt = law.d_sojourn(a, mu);
    s.du[i] = -(inst.access[i] + k * (law.sojourn(a, mu) + a * dt));
    if (dynamic) {
      s.d2c[i] = rate_k * (2.0 * dt + a * law.d2_sojourn(a, mu));
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    refresh(i);
  }

  SingleFileOutcome out;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    double alpha = options.alpha;
    if (dynamic) {
      // Provisional α over the whole group, refined over set A.
      alpha = options.dynamic_safety *
              dynamic_alpha_bound(s.du, s.d2c, s.group.indices,
                                  options.alpha);
    }
    active_set(s.group, s.x, s.du, alpha, caps, n, UnitWeights{}, s.aset);
    const std::vector<std::size_t>& active = s.aset.active;
    if (dynamic) {
      alpha = options.dynamic_safety *
              dynamic_alpha_bound(s.du, s.d2c, active, options.alpha);
    }
    if (marginal_spread(s.du, active) < options.epsilon) {
      out.converged = true;
      break;
    }
    // In place: apply_step reads each entry before writing it, and only
    // the active entries move, so only their marginals need refreshing.
    apply_step(active, s.x, s.du, alpha, caps, UnitWeights{}, s.deltas, s.x);
    for (const std::size_t i : active) {
      refresh(i);
    }
    ++out.iterations;
  }
  return out;
}

}  // namespace

void zero_load_tables(std::size_t n, double k,
                      const queueing::DelayModel& delay, const double* mu,
                      std::vector<double>& k_t0,
                      std::vector<double>& two_dt0) {
  k_t0.resize(n);
  two_dt0.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    k_t0[i] = k * delay.sojourn(0.0, mu[i]);
    two_dt0[i] = 2.0 * delay.d_sojourn(0.0, mu[i]);
  }
}

SingleFileOutcome run_single_file_loop(const SingleFileInstance& inst,
                                       const std::vector<double>& caps,
                                       const AllocatorOptions& options,
                                       SingleFileScratch& scratch) {
  const std::size_t n = inst.n;
  FAP_EXPECTS(scratch.x.size() == n, "start must have one share per node");
  scratch.du.resize(n);
  if (options.step_rule == StepRule::kDynamic) {
    scratch.d2c.resize(n);
  }
  ConstraintGroup& group = scratch.group;
  if (group.indices.size() != n) {
    group.indices.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      group.indices[i] = i;
    }
    group.total = 1.0;
  }

  const queueing::DelayModel& delay = *inst.delay;
  if (delay.discipline() == queueing::Discipline::kMMc) {
    return run_loop(inst, CheckedLaw{&delay}, caps, options, scratch);
  }
  return run_loop(inst, InlineLaw{delay.scv(), delay.rho_max()}, caps,
                  options, scratch);
}

}  // namespace fap::core::detail
