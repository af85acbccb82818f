#include "core/active_set.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.hpp"

namespace fap::core::detail {

namespace {

/// Running Σ w_i ∂U_i and Σ w_i, accumulated in insertion order so a
/// running mean reproduces a fresh left-to-right mean bit for bit.
template <class Weights>
struct WeightedSum {
  double num = 0.0;
  double den = 0.0;
  void add(const Weights& weights, std::size_t i, double du) {
    num += weights.weighted(i, du);
    den += weights.weight(i);
  }
  double mean() const { return num / den; }
};

/// ū over `subset`, summed in subset order.
template <class Weights>
double group_mean(const std::vector<double>& du,
                  const std::vector<std::size_t>& subset,
                  const Weights& weights) {
  WeightedSum<Weights> sum;
  for (const std::size_t i : subset) {
    sum.add(weights, i, du[i]);
  }
  return sum.mean();
}

}  // namespace

template <class Weights>
void active_set(const ConstraintGroup& group, const std::vector<double>& x,
                const std::vector<double>& marginal_u, double alpha,
                const std::vector<double>& caps, std::size_t dim,
                const Weights& weights, ActiveSetWorkspace& ws) {
  FAP_EXPECTS(!group.indices.empty(), "constraint group must be non-empty");
  const std::vector<std::size_t>& members = group.indices;
  const std::size_t m = members.size();

  const auto cap_of = [&caps](std::size_t i) {
    return caps.empty() ? std::numeric_limits<double>::infinity() : caps[i];
  };
  // Δx_i under the average `avg`.
  const auto delta = [&](std::size_t i, double avg) {
    return weights.weighted(i, alpha * (marginal_u[i] - avg));
  };
  const auto pinned = [&](std::size_t i, double d) {
    if (x[i] <= kBoundaryTol && d < 0.0 && x[i] + d <= 0.0) {
      return true;  // at the floor, being decreased
    }
    const double cap = cap_of(i);
    return x[i] >= cap - kBoundaryTol && d > 0.0 && x[i] + d >= cap;
  };

  std::vector<std::size_t>& active = ws.active;

  // Step (i): the reference recomputes the group mean for every
  // candidate; the sum is the same left-to-right sum each time, so
  // computing it once is bit-identical. Excluded nodes feed the running
  // extrema the peel below checks for re-admission.
  const double avg_full = group_mean(marginal_u, members, weights);
  double best_gainer = -std::numeric_limits<double>::infinity();
  double best_loser = std::numeric_limits<double>::infinity();
  const auto exclude = [&](std::size_t i) {
    if (x[i] < cap_of(i) - kBoundaryTol) {
      best_gainer = std::max(best_gainer, marginal_u[i]);
    }
    if (x[i] > kBoundaryTol) {
      best_loser = std::min(best_loser, marginal_u[i]);
    }
  };
  const auto step_one = [&] {
    active.clear();
    for (const std::size_t i : members) {
      if (pinned(i, delta(i, avg_full))) {
        exclude(i);
      } else {
        active.push_back(i);
      }
    }
  };
  step_one();

  // Fast path: nobody pinned under the full-group average. The reference's
  // round 0 is then a provable no-op — no outsiders exist to re-admit, and
  // its drop pass recomputes the same left-to-right group sum and repeats
  // exactly the pinned() checks step (i) just passed — so A is the whole
  // group and the heaps are never needed. This is the steady state of an
  // interior trajectory, which makes the per-iteration cost O(m) there.
  if (active.size() == m) {
    std::sort(active.begin(), active.end());
    return;
  }

  // Peel: the reference rounds, replayed without heaps for as long as no
  // round re-admits a node. That is the catalog's common case: from a
  // point mass, step (i) keeps the empty nodes whose marginal reaches the
  // full-group mean (about half the group), and each drop round sheds the
  // empty nodes below the risen mean until one or two nodes remain.
  // A round re-admits iff the best eligible outsider's gap clears the
  // active mean (the heaps' first peek); subtraction is monotone, so the
  // running extrema over excluded nodes decide that exactly. Otherwise
  // the round is only the drop pass, with the same sums in the same order
  // and the same pinned() arithmetic. Each round that continues drops a
  // node, so the peel ends within |A| < m rounds, before the reference's
  // round limit (2m + 2) could bind. A re-admission or an emptied set
  // restarts the heap procedure below from step (i), which replays the
  // peeled rounds.
  if (!active.empty()) {
    std::vector<std::size_t>& survivors = ws.survivors;
    for (;;) {
      const double avg = group_mean(marginal_u, active, weights);
      if (best_gainer - avg > 0.0 || best_loser - avg < 0.0) {
        break;
      }
      survivors.clear();
      for (const std::size_t i : active) {
        if (pinned(i, delta(i, avg))) {
          exclude(i);
        } else {
          survivors.push_back(i);
        }
      }
      if (survivors.size() == active.size()) {
        std::sort(active.begin(), active.end());
        return;
      }
      if (survivors.empty()) {
        break;
      }
      std::swap(active, survivors);
    }
    step_one();
  }

  // Membership bitmask (replaces the reference's std::find scans) and the
  // variable -> group-position map used to re-enqueue dropped nodes.
  ws.in_active.assign(dim, 0);
  if (ws.pos_in_group.size() != dim) {
    ws.pos_in_group.resize(dim);
  }
  for (std::size_t p = 0; p < m; ++p) {
    ws.pos_in_group[members[p]] = p;
  }
  for (const std::size_t i : active) {
    ws.in_active[i] = 1;
  }

  if (active.empty()) {
    // Degenerate; keep the node with the highest marginal utility (first
    // maximum in group order, as std::max_element returns).
    std::size_t best = members.front();
    for (const std::size_t i : members) {
      if (marginal_u[i] > marginal_u[best]) {
        best = i;
      }
    }
    active.push_back(best);
    ws.in_active[best] = 1;
  }

  // Lazy re-admission heaps over group positions. Eligibility is a static
  // property of x (strictly inside the respective bound), so each heap is
  // built once; entries already re-admitted are skipped on pop. For the
  // gainer heap (candidates with marginal > average) the re-admission gap
  // grows with the marginal utility, so the best gainer is the max-du
  // candidate; dually the best loser is the min-du candidate. Ties broken
  // toward the earlier group position — the element the reference's
  // position-ordered strict-improvement scan would settle on.
  const auto gainer_less = [&](std::size_t a, std::size_t b) {
    const double da = marginal_u[members[a]];
    const double db = marginal_u[members[b]];
    if (da != db) {
      return da < db;
    }
    return a > b;
  };
  const auto loser_less = [&](std::size_t a, std::size_t b) {
    const double da = marginal_u[members[a]];
    const double db = marginal_u[members[b]];
    if (da != db) {
      return da > db;
    }
    return a > b;
  };
  std::vector<std::size_t>& gainers = ws.gainer_heap;
  std::vector<std::size_t>& losers = ws.loser_heap;
  gainers.clear();
  losers.clear();
  for (std::size_t p = 0; p < m; ++p) {
    const std::size_t j = members[p];
    if (x[j] < cap_of(j) - kBoundaryTol) {
      gainers.push_back(p);
    }
    if (x[j] > kBoundaryTol) {
      losers.push_back(p);
    }
  }
  std::make_heap(gainers.begin(), gainers.end(), gainer_less);
  std::make_heap(losers.begin(), losers.end(), loser_less);

  // Pops stale (already-active) entries, then returns the top position, or
  // m when the heap has no live candidate.
  const auto peek = [&](std::vector<std::size_t>& heap,
                        const auto& less) -> std::size_t {
    while (!heap.empty() && ws.in_active[members[heap.front()]] != 0) {
      std::pop_heap(heap.begin(), heap.end(), less);
      heap.pop_back();
    }
    return heap.empty() ? m : heap.front();
  };

  const std::size_t round_limit = 2 * m + 2;
  std::vector<std::size_t>& survivors = ws.survivors;
  for (std::size_t round = 0; round < round_limit; ++round) {
    bool changed = false;

    // Running sums of the active (weighted) marginal utilities, rebuilt in
    // the active vector's insertion order so every mean below reproduces
    // the reference's fresh left-to-right mean bit for bit (appending the
    // admitted node's terms to the running sums IS the next left-to-right
    // sum, because the node is appended at the end).
    WeightedSum<Weights> sum_active;
    for (const std::size_t i : active) {
      sum_active.add(weights, i, marginal_u[i]);
    }

    // Re-admission: largest |marginal - average| eligible node first. The
    // average is common to every candidate, so the best gainer is the
    // max-du one and the best loser the min-du one under any weights.
    for (;;) {
      const double avg = sum_active.mean();
      const std::size_t gp = peek(gainers, gainer_less);
      const std::size_t lp = peek(losers, loser_less);
      double gainer_gap = 0.0;
      double loser_gap = 0.0;
      if (gp < m) {
        const double gap = marginal_u[members[gp]] - avg;
        if (gap > 0.0) {
          gainer_gap = gap;  // == fabs(gap)
        }
      }
      if (lp < m) {
        const double gap = marginal_u[members[lp]] - avg;
        if (gap < 0.0) {
          loser_gap = std::fabs(gap);
        }
      }
      std::size_t best_pos = m;
      if (gainer_gap > 0.0 || loser_gap > 0.0) {
        if (gainer_gap > loser_gap) {
          best_pos = gp;
        } else if (loser_gap > gainer_gap) {
          best_pos = lp;
        } else {
          // Exact cross-class tie: the reference's scan keeps the first
          // (smallest-position) candidate attaining the maximum.
          best_pos = std::min(gp, lp);
        }
      }
      if (best_pos == m) {
        break;
      }
      const std::size_t j = members[best_pos];
      active.push_back(j);
      ws.in_active[j] = 1;
      sum_active.add(weights, j, marginal_u[j]);
      changed = true;
    }

    // Drop: members whose recomputed Δx pins them at a boundary. Dropped
    // nodes go back into the candidate heaps (duplicates are fine — stale
    // copies are skipped on pop).
    const double avg = sum_active.mean();
    survivors.clear();
    for (const std::size_t i : active) {
      if (pinned(i, delta(i, avg))) {
        changed = true;
        ws.in_active[i] = 0;
        const std::size_t p = ws.pos_in_group[i];
        if (x[i] < cap_of(i) - kBoundaryTol) {
          gainers.push_back(p);
          std::push_heap(gainers.begin(), gainers.end(), gainer_less);
        }
        if (x[i] > kBoundaryTol) {
          losers.push_back(p);
          std::push_heap(losers.begin(), losers.end(), loser_less);
        }
        continue;
      }
      survivors.push_back(i);
    }
    if (survivors.empty()) {
      // Everyone is a violator only in degenerate corner cases; keep the
      // best node defensively (first maximum in the pre-drop active order).
      std::size_t best = active.front();
      for (const std::size_t i : active) {
        if (marginal_u[i] > marginal_u[best]) {
          best = i;
        }
      }
      survivors.push_back(best);
      ws.in_active[best] = 1;
    }
    std::swap(active, survivors);

    if (!changed) {
      break;
    }
  }
  std::sort(active.begin(), active.end());
}

template void active_set<UnitWeights>(const ConstraintGroup&,
                                      const std::vector<double>&,
                                      const std::vector<double>&, double,
                                      const std::vector<double>&, std::size_t,
                                      const UnitWeights&,
                                      ActiveSetWorkspace&);
template void active_set<VariableWeights>(
    const ConstraintGroup&, const std::vector<double>&,
    const std::vector<double>&, double, const std::vector<double>&,
    std::size_t, const VariableWeights&, ActiveSetWorkspace&);

double marginal_spread(const std::vector<double>& marginal_u,
                       const std::vector<std::size_t>& active) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const std::size_t i : active) {
    lo = std::min(lo, marginal_u[i]);
    hi = std::max(hi, marginal_u[i]);
  }
  return hi - lo;
}

double dynamic_alpha_bound(const std::vector<double>& marginal_u,
                           const std::vector<double>& second_derivative,
                           const std::vector<std::size_t>& active,
                           double fallback) {
  const double avg = group_mean(marginal_u, active, UnitWeights{});
  double numerator = 0.0;
  double denominator = 0.0;
  for (const std::size_t i : active) {
    const double dev = marginal_u[i] - avg;
    numerator += dev * dev;
    denominator += std::fabs(second_derivative[i]) * dev * dev;
  }
  if (denominator <= 0.0) {
    return fallback;
  }
  return 2.0 * numerator / denominator;
}

template <class Weights>
double apply_step(const std::vector<std::size_t>& active,
                  const std::vector<double>& x,
                  const std::vector<double>& marginal_u, double alpha,
                  const std::vector<double>& caps, const Weights& weights,
                  std::vector<double>& deltas, std::vector<double>& x_out) {
  const auto cap_of = [&caps](std::size_t i) {
    return caps.empty() ? std::numeric_limits<double>::infinity() : caps[i];
  };
  const double avg = group_mean(marginal_u, active, weights);
  deltas.assign(active.size(), 0.0);
  double theta = 1.0;
  for (std::size_t idx = 0; idx < active.size(); ++idx) {
    const std::size_t i = active[idx];
    deltas[idx] = weights.weighted(i, alpha * (marginal_u[i] - avg));
    if (deltas[idx] < 0.0 && x[i] + deltas[idx] < 0.0) {
      theta = std::min(theta, x[i] / -deltas[idx]);
    }
    const double cap = cap_of(i);
    if (deltas[idx] > 0.0 && x[i] + deltas[idx] > cap) {
      theta = std::min(theta, (cap - x[i]) / deltas[idx]);
    }
  }
  theta = std::max(theta, 0.0);
  for (std::size_t idx = 0; idx < active.size(); ++idx) {
    const std::size_t i = active[idx];
    double next = x[i] + theta * deltas[idx];
    if (next < 0.0) {
      next = 0.0;  // absorb floating-point dust
    }
    if (next > cap_of(i)) {
      next = cap_of(i);
    }
    x_out[i] = next;
  }
  return theta;
}

template double apply_step<UnitWeights>(
    const std::vector<std::size_t>&, const std::vector<double>&,
    const std::vector<double>&, double, const std::vector<double>&,
    const UnitWeights&, std::vector<double>&, std::vector<double>&);
template double apply_step<VariableWeights>(
    const std::vector<std::size_t>&, const std::vector<double>&,
    const std::vector<double>&, double, const std::vector<double>&,
    const VariableWeights&, std::vector<double>&, std::vector<double>&);

}  // namespace fap::core::detail
