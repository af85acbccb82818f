// Shared state and dense row passes for the batched SoA allocator.
//
// BatchAllocator's run_all() loop is a fixed sequence of dense row passes
// over [node][lane] planes; each pass is a plain function over BatchSoA,
// defined in core/batch_kernels.cpp. Lanes are independent instances, so
// no pass performs a cross-lane reduction: every lane executes the
// serial allocator's operation sequence, and that TU is compiled
// -ffp-contract=off so no FMA contraction can perturb a rounding.
//
// Plane geometry: row j of a plane starts at data() + j * stride. stride
// is the lane count rounded up to util::kDoublesPerCacheLine (8), and
// planes are 64-byte aligned (util::AlignedVector), so every row starts
// on a cache line. Columns in [live, stride) are dead: no pass reads or
// writes them.
//
// Padding invariants (rows j >= lane n of a live column): x = 0, c = 0,
// mu = 1, cap = +inf, du = 0 at every point a dense loop reads them —
// see batch_allocator.cpp for why each is load-bearing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/aligned.hpp"

namespace fap::core::detail {

/// Lane stride granularity in doubles: one 64-byte cache line.
inline constexpr std::size_t kLaneStrideMultiple = util::kDoublesPerCacheLine;

inline constexpr std::size_t round_up_stride(std::size_t lanes) {
  return (lanes + kLaneStrideMultiple - 1) / kLaneStrideMultiple *
         kLaneStrideMultiple;
}

/// The structure-of-arrays state the row passes operate on. Owned by
/// BatchAllocator; the passes see it as planes + geometry.
struct BatchSoA {
  std::size_t stride = 0;    ///< row stride (lanes rounded up to 8)
  std::size_t live = 0;      ///< occupied columns (prefix)
  std::size_t n_min = 0;     ///< min lane dimension among live lanes
  std::size_t n_max = 0;     ///< max lane dimension among live lanes

  // Planes, row-major [node][lane], rows 64-byte aligned.
  util::AlignedVector x, xn, du, d2c, c, mu, cap;

  // Per-lane constants (length stride). lane_nd is the lane dimension as
  // a double, so the padding-row tests and the average compare and
  // divide without conversions (n <= 2^53 is exact).
  util::AlignedVector lane_tr, lane_k, lane_scv, lane_rho, lane_nd,
      lane_alpha_opt, lane_safety;
  std::vector<unsigned char> lane_dyn;  ///< 1 = dynamic step rule

  // Per-iteration outputs (length stride).
  util::AlignedVector sum_full, avg_full, alpha, lo, hi, theta;
  // Census counts: how many nodes of the lane trip the pin / violation
  // predicate (only zero-ness is ever observed).
  std::vector<std::uint32_t> pinc, viol;

  double* row(util::AlignedVector& plane, std::size_t j) {
    return plane.data() + j * stride;
  }
  const double* row(const util::AlignedVector& plane, std::size_t j) const {
    return plane.data() + j * stride;
  }
};

// The dense passes of one lockstep iteration, in call order.

/// du (and d2c when with_second) for rows [0, n_max), then the du
/// padding invariant restored (du = 0 on rows >= lane n). Only called
/// when every live lane has a single-server delay law; M/M/c batches
/// take the per-lane scalar path in batch_allocator.cpp.
void derivative_rows(BatchSoA& soa, bool with_second);

/// Restores the du padding invariant alone (the per-lane M/M/c path
/// leaves stale values on padding rows).
void zero_du_padding(BatchSoA& soa);

/// sum_full[k] = Σ_j du[j][k] (node rows in ascending order, exactly
/// the serial left-to-right sum), avg_full[k] = sum_full[k] / n_k.
void lane_sums(BatchSoA& soa);

/// alpha[k]: the lane's fixed step, or the Theorem-2 dynamic bound over
/// the whole group (safety * 2Σdev² / Σ|d2c|·dev²) for dynamic lanes.
void step_sizes(BatchSoA& soa);

/// pinc/viol census against the full-group average step, plus the θ
/// clipping scan: theta[k] = min over violating nodes of the exact
/// serial candidates (1.0 when nothing violates). theta is only
/// meaningful for unpinned lanes — pinned lanes re-derive their step on
/// the gathered scalar path.
void census_theta(BatchSoA& soa);

/// Marginal-utility spread: lo/hi over each lane's real rows only
/// (padding must not participate in min/max).
void spread(BatchSoA& soa);

/// xn = clamp(x + theta * alpha * (du - avg)) over rows [0, n_max), then
/// the xn padding invariant restored (xn = 0 on rows >= lane n).
void apply_rows(BatchSoA& soa);

}  // namespace fap::core::detail
