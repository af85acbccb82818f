#include "queueing/delay.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace fap::queueing {

double erlang_c(std::size_t servers, double offered_load) {
  FAP_EXPECTS(servers >= 1, "need at least one server");
  FAP_EXPECTS(offered_load >= 0.0 &&
                  offered_load < static_cast<double>(servers),
              "Erlang C requires offered load below the server count");
  if (offered_load == 0.0) {
    return 0.0;
  }
  // Iteratively: term_k = r^k / k!, accumulated in a numerically tame way.
  double term = 1.0;  // k = 0
  double partial_sum = 1.0;
  for (std::size_t k = 1; k < servers; ++k) {
    term *= offered_load / static_cast<double>(k);
    partial_sum += term;
  }
  const double top =
      term * offered_load / static_cast<double>(servers);  // r^c / c!
  const double c = static_cast<double>(servers);
  return top / ((1.0 - offered_load / c) * partial_sum + top);
}

DelayModel::DelayModel(Discipline discipline, double scv, double rho_max)
    : discipline_(discipline), scv_(scv), rho_max_(rho_max) {
  FAP_EXPECTS(rho_max > 0.0 && rho_max <= 1.0, "rho_max must be in (0, 1]");
  FAP_EXPECTS(scv >= 0.0, "squared coefficient of variation must be >= 0");
  switch (discipline) {
    case Discipline::kMM1:
      scv_ = 1.0;
      break;
    case Discipline::kMD1:
      scv_ = 0.0;
      break;
    case Discipline::kMG1:
      break;
    case Discipline::kMMc:
      scv_ = 1.0;
      break;
  }
}

DelayModel DelayModel::mm1(double rho_max) {
  return DelayModel(Discipline::kMM1, 1.0, rho_max);
}

DelayModel DelayModel::md1(double rho_max) {
  return DelayModel(Discipline::kMD1, 0.0, rho_max);
}

DelayModel DelayModel::mg1(double scv, double rho_max) {
  return DelayModel(Discipline::kMG1, scv, rho_max);
}

DelayModel DelayModel::mmc(std::size_t servers, double rho_max) {
  FAP_EXPECTS(servers >= 1, "need at least one server");
  DelayModel model(Discipline::kMMc, 1.0, rho_max);
  model.servers_ = servers;
  return model;
}

void DelayModel::check_args(double a, double mu) const {
  FAP_EXPECTS(a >= 0.0, "arrival rate must be non-negative");
  FAP_EXPECTS(mu > 0.0, "service rate must be positive");
  if (rho_max_ >= 1.0) {
    FAP_EXPECTS(a < capacity(mu),
                "arrival rate must be below the node's service capacity "
                "when the linear delay extension is disabled (rho_max == 1)");
  }
}

// Pollaczek–Khinchine: T(a) = 1/μ + a (1 + c²) / (2 μ (μ - a)); with
// c² = 1 this reduces to the M/M/1 sojourn 1/(μ - a). For M/M/c:
// T(a) = 1/μ + ErlangC(c, a/μ) / (cμ - a).
double DelayModel::pure_sojourn(double a, double mu) const {
  if (discipline_ == Discipline::kMMc) {
    return 1.0 / mu +
           erlang_c(servers_, a / mu) / (capacity(mu) - a);
  }
  return detail::pk_sojourn(a, mu, scv_);
}

double DelayModel::pure_d_sojourn(double a, double mu) const {
  if (discipline_ == Discipline::kMMc) {
    // Central (forward at the origin) difference of the exact formula;
    // step well inside the stability region.
    const double h = std::min(1e-6 * capacity(mu),
                              0.25 * (capacity(mu) - a));
    if (a < h) {
      return (pure_sojourn(a + h, mu) - pure_sojourn(a, mu)) / h;
    }
    return (pure_sojourn(a + h, mu) - pure_sojourn(a - h, mu)) / (2.0 * h);
  }
  return detail::pk_d_sojourn(a, mu, scv_);
}

double DelayModel::pure_d2_sojourn(double a, double mu) const {
  if (discipline_ == Discipline::kMMc) {
    const double h = std::min(1e-5 * capacity(mu),
                              0.25 * (capacity(mu) - a));
    if (a < h) {
      // One-sided second difference at the origin.
      return (pure_sojourn(a + 2.0 * h, mu) -
              2.0 * pure_sojourn(a + h, mu) + pure_sojourn(a, mu)) /
             (h * h);
    }
    return (pure_sojourn(a + h, mu) - 2.0 * pure_sojourn(a, mu) +
            pure_sojourn(a - h, mu)) /
           (h * h);
  }
  return detail::pk_d2_sojourn(a, mu, scv_);
}

double DelayModel::sojourn(double a, double mu) const {
  check_args(a, mu);
  const double knee = rho_max_ * capacity(mu);
  if (rho_max_ < 1.0 && a >= knee) {
    return pure_sojourn(knee, mu) + pure_d_sojourn(knee, mu) * (a - knee);
  }
  return pure_sojourn(a, mu);
}

double DelayModel::d_sojourn(double a, double mu) const {
  check_args(a, mu);
  const double knee = rho_max_ * capacity(mu);
  if (rho_max_ < 1.0 && a >= knee) {
    return pure_d_sojourn(knee, mu);
  }
  return pure_d_sojourn(a, mu);
}

double DelayModel::d2_sojourn(double a, double mu) const {
  check_args(a, mu);
  const double knee = rho_max_ * capacity(mu);
  if (rho_max_ < 1.0 && a >= knee) {
    return 0.0;
  }
  return pure_d2_sojourn(a, mu);
}

double mm1_sojourn_time(double lambda, double mu) {
  FAP_EXPECTS(lambda >= 0.0 && lambda < mu, "M/M/1 requires 0 <= lambda < mu");
  return 1.0 / (mu - lambda);
}

double mm1_waiting_time(double lambda, double mu) {
  return mm1_sojourn_time(lambda, mu) - 1.0 / mu;
}

double mm1_mean_queue_length(double lambda, double mu) {
  FAP_EXPECTS(lambda >= 0.0 && lambda < mu, "M/M/1 requires 0 <= lambda < mu");
  const double rho = lambda / mu;
  return rho / (1.0 - rho);
}

double mm1_utilization(double lambda, double mu) {
  FAP_EXPECTS(mu > 0.0, "service rate must be positive");
  return lambda / mu;
}

}  // namespace fap::queueing
