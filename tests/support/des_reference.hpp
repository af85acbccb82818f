// Reference discrete-event engine, kept as the equivalence oracle for
// sim::DesSystem (the same pattern as the active-set oracle in
// support/active_set_reference.hpp). A test-only target: no shipped
// library contains it.
//
// This is the pre-rewrite engine verbatim — fat Event structs through
// std::priority_queue, a std::deque FIFO and a per-job unordered_map at
// every server — with one normalization: active (in-service) jobs are
// iterated in ascending job-id order wherever their busy-time
// contributions are summed. The original engine iterated in
// unordered_map bucket order, which is observable only in the last bits
// of multi-server busy-time/utilization sums; the rewritten engine and
// this reference both use the canonical ascending order, so their traces
// can be compared bit for bit.
//
// Its only callers are the golden-trace equivalence tests
// (tests/sim_des_engine_equiv_test.cpp), which drive both engines through
// identical scenario scripts and require every statistic, log entry and
// clock value to match exactly.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "sim/des_system.hpp"

namespace fap::testing {

/// Mirror of the DesSystem API backed by the reference event engine.
/// Behavior contract: for any sequence of calls, every observable —
/// now(), window() statistics, logs, completion counts — is bit-identical
/// to DesSystem's under the same DesConfig.
class DesReferenceSystem {
 public:
  explicit DesReferenceSystem(sim::DesConfig config);
  ~DesReferenceSystem();
  DesReferenceSystem(DesReferenceSystem&&) noexcept;
  DesReferenceSystem& operator=(DesReferenceSystem&&) noexcept;

  double now() const noexcept { return now_; }
  void set_routing(const std::vector<std::vector<double>>& routing);
  void set_node_failed(std::size_t node, bool failed);
  void advance_until(double time);
  std::size_t advance_completions(std::size_t count);
  void reset_window();
  const sim::WindowStats& window();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  double now_ = 0.0;
  sim::WindowStats window_;

  void process_one_event();
};

}  // namespace fap::testing
