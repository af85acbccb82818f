#include "support/active_set_reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/active_set.hpp"
#include "util/contracts.hpp"

namespace fap::testing {

std::vector<std::size_t> active_set_reference(
    const core::ConstraintGroup& group, const std::vector<double>& x,
    const std::vector<double>& marginal_u, double alpha,
    const std::vector<double>& caps, const std::vector<double>& weights) {
  FAP_EXPECTS(!group.indices.empty(), "constraint group must be non-empty");
  using core::detail::kBoundaryTol;
  const auto cap_of = [&caps](std::size_t i) {
    return caps.empty() ? std::numeric_limits<double>::infinity() : caps[i];
  };
  const auto weight = [&weights](std::size_t i) {
    return weights.empty() ? 1.0 : weights[i];
  };

  // Weighted mean of the marginal utilities over `members`.
  const auto mean_over = [&](const std::vector<std::size_t>& members) {
    double num = 0.0;
    double den = 0.0;
    for (const std::size_t i : members) {
      num += marginal_u[i] * weight(i);
      den += weight(i);
    }
    return num / den;
  };

  // Δx under the average of the candidate set `members`.
  const auto delta = [&](std::size_t i,
                         const std::vector<std::size_t>& members) {
    return alpha * (marginal_u[i] - mean_over(members)) * weight(i);
  };

  // A variable pinned at a boundary moving further into it is excluded
  // (both bounds treated symmetrically: the paper's x_i >= 0 logic, plus
  // the storage-capacity ceiling of the Suri [33] generalization).
  const auto pinned = [&](std::size_t i, double d) {
    if (x[i] <= kBoundaryTol && d < 0.0 && x[i] + d <= 0.0) {
      return true;  // at the floor, being decreased
    }
    const double cap = cap_of(i);
    return x[i] >= cap - kBoundaryTol && d > 0.0 && x[i] + d >= cap;
  };

  // Step (i): start from the whole group, keep nodes not pinned under the
  // full-group average.
  std::vector<std::size_t> active;
  active.reserve(group.indices.size());
  for (const std::size_t i : group.indices) {
    if (!pinned(i, delta(i, group.indices))) {
      active.push_back(i);
    }
  }
  if (active.empty()) {
    // Degenerate; keep the node with the highest marginal utility.
    const std::size_t best = *std::max_element(
        group.indices.begin(), group.indices.end(),
        [&](std::size_t a, std::size_t b) {
          return marginal_u[a] < marginal_u[b];
        });
    active.push_back(best);
  }

  // Steps (ii)-(v) plus the fixed-point strengthening: alternately
  // re-admit excluded nodes that would move AWAY from their boundary
  // (floor-pinned gainers, cap-pinned losers — both safe), and drop
  // active nodes whose recomputed Δx pins them.
  const std::size_t round_limit = 2 * group.indices.size() + 2;
  for (std::size_t round = 0; round < round_limit; ++round) {
    bool changed = false;

    // Re-admission: largest |marginal - average| eligible node first.
    for (;;) {
      const double avg = mean_over(active);
      std::size_t best = 0;
      double best_gap = 0.0;
      bool found = false;
      for (const std::size_t j : group.indices) {
        if (std::find(active.begin(), active.end(), j) != active.end()) {
          continue;
        }
        const double gap = marginal_u[j] - avg;
        const bool safe_gainer = gap > 0.0 && x[j] < cap_of(j) - kBoundaryTol;
        const bool safe_loser = gap < 0.0 && x[j] > kBoundaryTol;
        if ((safe_gainer || safe_loser) && std::fabs(gap) > best_gap) {
          best_gap = std::fabs(gap);
          best = j;
          found = true;
        }
      }
      if (!found) {
        break;
      }
      active.push_back(best);
      changed = true;
    }

    // Drop: members whose recomputed Δx pins them at a boundary.
    std::vector<std::size_t> survivors;
    survivors.reserve(active.size());
    for (const std::size_t i : active) {
      if (pinned(i, delta(i, active))) {
        changed = true;
        continue;
      }
      survivors.push_back(i);
    }
    if (survivors.empty()) {
      // Everyone is a violator only in degenerate corner cases; keep the
      // best node defensively.
      survivors.push_back(*std::max_element(
          active.begin(), active.end(), [&](std::size_t a, std::size_t b) {
            return marginal_u[a] < marginal_u[b];
          }));
    }
    active = std::move(survivors);

    if (!changed) {
      break;
    }
  }
  std::sort(active.begin(), active.end());
  return active;
}

}  // namespace fap::testing
