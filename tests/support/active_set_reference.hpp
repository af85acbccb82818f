// The literal Section 5.2 steps (i)-(v) transcription of set A: linear
// membership scans and a freshly re-averaged mean for every candidate,
// O(n²) per drop/re-admit round. A test-only oracle — no shipped library
// contains it — that pins core's fast path (core/active_set.hpp)
// decision for decision.
#pragma once

#include <cstddef>
#include <vector>

#include "core/cost_model.hpp"

namespace fap::testing {

/// Set A for one constraint group. `caps` is the per-variable upper-bound
/// vector (empty = unbounded). `weights` is empty for the paper's
/// unweighted rule, or positive per-variable weights w_i, under which the
/// average is ū = Σ w_i ∂U_i / Σ w_i and the move Δx_i = α (∂U_i − ū) w_i
/// (the NewtonAllocator weighting). Unit weights reproduce the unweighted
/// transcription bit for bit: multiplying by 1.0 and summing 1.0s are
/// exact. Returned indices are sorted variable indices.
std::vector<std::size_t> active_set_reference(
    const core::ConstraintGroup& group, const std::vector<double>& x,
    const std::vector<double>& marginal_u, double alpha,
    const std::vector<double>& caps, const std::vector<double>& weights = {});

}  // namespace fap::testing
