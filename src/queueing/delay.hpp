// Queueing-delay models for file-access service at a node.
//
// The paper models each node as an M/M/1 queue: Poisson access arrivals at
// rate a (= λ x_i for the single-copy model) and exponential service at
// rate μ, giving an expected sojourn time T = 1/(μ - a) (Eq. before Eq. 1).
// Section 5.4 notes that "alternate queueing models (e.g., such as M/G/1
// queues) can be directly used" — DelayModel covers M/M/1, M/D/1 and
// general M/G/1 via the Pollaczek–Khinchine formula, parameterized by the
// squared coefficient of variation (SCV) of service time.
//
// The paper also remarks (Section 4) that if λ is not restricted below μ,
// "some functional approximation can easily be made for T_i, as in [26]".
// DelayModel supports exactly that: an optional linearization threshold
// ρ_max extends T beyond ρ_max·μ by its tangent line, keeping T, T' and T''
// finite for any arrival rate (needed by the multiple-copy model of
// Section 7 where a node may transiently be assigned more than μ worth of
// traffic).
#pragma once

#include <cstddef>

namespace fap::queueing {

namespace detail {

// Single-server Pollaczek–Khinchine primitives. These inline expressions
// are the ONE definition of the single-server delay law: the checked
// DelayModel entry points evaluate exactly these operation sequences, and
// core's shared §5.2 loop (core/single_file_loop.cpp) calls the lin_*
// forms below directly, without per-call argument checks. That loop is
// bit-identical to the serial allocator only because lin_* is bitwise
// equal to the checked entry points (pinned by queueing_batch_test).
inline double pk_sojourn(double a, double mu, double scv) {
  return 1.0 / mu + a * (1.0 + scv) / (2.0 * mu * (mu - a));
}

inline double pk_d_sojourn(double a, double mu, double scv) {
  const double gap = mu - a;
  return (1.0 + scv) / (2.0 * gap * gap);
}

inline double pk_d2_sojourn(double a, double mu, double scv) {
  const double gap = mu - a;
  return (1.0 + scv) / (gap * gap * gap);
}

// Knee-clamped (tangent-extended) single-server evaluations, written
// branch-free:
//   ae = min(a, knee),  T(a) = T_pure(ae) + T_pure'(ae) · (a - ae).
// For a < knee the correction term is exactly +0.0 and T_pure(ae) > 0, so
// adding it reproduces the pure value bit-for-bit; for a >= knee this is
// literally the tangent extension DelayModel::sojourn computes. With
// rho_max == 1 the preconditions force a < mu = knee, so the pure branch
// is always taken, matching the scalar rho_max >= 1 fast path.
inline double lin_sojourn(double a, double mu, double scv, double rho_max) {
  const double knee = rho_max * mu;
  const double ae = a < knee ? a : knee;
  return pk_sojourn(ae, mu, scv) + pk_d_sojourn(ae, mu, scv) * (a - ae);
}

inline double lin_d_sojourn(double a, double mu, double scv, double rho_max) {
  const double knee = rho_max * mu;
  const double ae = a < knee ? a : knee;
  return pk_d_sojourn(ae, mu, scv);
}

inline double lin_d2_sojourn(double a, double mu, double scv, double rho_max) {
  const double knee = rho_max * mu;
  return a < knee ? pk_d2_sojourn(a, mu, scv) : 0.0;
}

}  // namespace detail

/// Queueing discipline for the per-node service model.
enum class Discipline {
  kMM1,  ///< exponential service (SCV = 1); T = 1/(μ - a)
  kMD1,  ///< deterministic service (SCV = 0)
  kMG1,  ///< general service with user-supplied SCV
  kMMc,  ///< c parallel exponential servers of rate μ each (Erlang C)
};

/// Expected sojourn time (queueing + service) and its first two derivatives
/// with respect to the arrival rate, for a single-server queue.
class DelayModel {
 public:
  /// M/M/1 with no linearization (pure model; infinite delay at a = μ).
  DelayModel() noexcept = default;

  /// `discipline` selects the service distribution. `scv` is the squared
  /// coefficient of variation of service time, used only for kMG1 (kMM1
  /// forces 1, kMD1 forces 0). `rho_max` in (0, 1] sets the utilization
  /// beyond which the delay curve is extended linearly; 1 disables the
  /// extension.
  DelayModel(Discipline discipline, double scv = 1.0, double rho_max = 1.0);

  /// Convenience factories.
  static DelayModel mm1(double rho_max = 1.0);
  static DelayModel md1(double rho_max = 1.0);
  static DelayModel mg1(double scv, double rho_max = 1.0);
  /// M/M/c: `servers` parallel exponential servers, each of rate μ (the
  /// μ passed to sojourn() is the per-server rate). Expected sojourn
  /// 1/μ + ErlangC(c, a/μ) / (cμ - a). First/second derivatives are
  /// computed by central differences of the exact formula (Erlang C has
  /// no tidy closed-form derivative); the sojourn is smooth and convex
  /// in a, so the numeric derivatives are well conditioned (pinned by
  /// tests).
  static DelayModel mmc(std::size_t servers, double rho_max = 1.0);

  Discipline discipline() const noexcept { return discipline_; }
  double scv() const noexcept { return scv_; }
  double rho_max() const noexcept { return rho_max_; }
  std::size_t servers() const noexcept { return servers_; }

  /// Total service capacity of a node whose per-server rate is μ: μ for
  /// the single-server disciplines, c·μ for M/M/c. Stability requires
  /// the arrival rate below this.
  double capacity(double mu) const noexcept {
    return static_cast<double>(servers_) * mu;
  }

  /// Expected sojourn time of an access arriving at rate `a` to a server of
  /// rate `mu`. Requires a >= 0 and mu > 0. For a >= ρ_max·μ the tangent
  /// extension is used; with rho_max == 1 the pure formula is used and `a`
  /// must be < μ.
  double sojourn(double a, double mu) const;

  /// d sojourn / d a at the same point.
  double d_sojourn(double a, double mu) const;

  /// d² sojourn / d a² at the same point (0 on the linear extension).
  double d2_sojourn(double a, double mu) const;

  /// True when the (pure) queue is stable at this arrival rate, i.e. a < μ.
  static bool stable(double a, double mu) noexcept { return a < mu; }

 private:
  // Pure (non-linearized) formulas.
  double pure_sojourn(double a, double mu) const;
  double pure_d_sojourn(double a, double mu) const;
  double pure_d2_sojourn(double a, double mu) const;
  void check_args(double a, double mu) const;

  Discipline discipline_ = Discipline::kMM1;
  double scv_ = 1.0;
  double rho_max_ = 1.0;
  std::size_t servers_ = 1;
};

/// Erlang-C: the probability an arrival waits in an M/M/c queue with
/// offered load r = a/μ (requires r < c). Exposed for tests.
double erlang_c(std::size_t servers, double offered_load);

/// Classic M/M/1 quantities, exposed directly for the discrete-event
/// simulator's validation tests.
double mm1_sojourn_time(double lambda, double mu);
double mm1_waiting_time(double lambda, double mu);
double mm1_mean_queue_length(double lambda, double mu);
double mm1_utilization(double lambda, double mu);

}  // namespace fap::queueing
