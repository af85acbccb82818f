#include "trace.hpp"

#include <algorithm>
#include <utility>

#include "util/json.hpp"

namespace perfbench {

double seconds_since(std::chrono::steady_clock::time_point origin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

Tracer::Tracer(std::string run_id)
    : run_id_(std::move(run_id)), origin_(std::chrono::steady_clock::now()) {}

Tracer::Scope::Scope(Tracer& tracer, std::string name)
    : tracer_(tracer), index_(static_cast<int>(tracer.spans_.size())) {
  Span span;
  span.name = std::move(name);
  span.parent = tracer_.open_;
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_ = index_;
  // Read the clock last, so the bookkeeping above is not inside the span.
  tracer_.spans_[index_].start_s = seconds_since(tracer_.origin_);
}

Tracer::Scope::~Scope() {
  Span& span = tracer_.spans_[index_];
  span.end_s = seconds_since(tracer_.origin_);
  tracer_.open_ = span.parent;
}

double Tracer::total_s(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) {
      total += span.end_s - span.start_s;
    }
  }
  return total;
}

double Tracer::self_s(std::size_t index) const {
  const Span& span = spans_[index];
  std::vector<std::pair<double, double>> children;
  for (const Span& child : spans_) {
    if (child.parent == static_cast<int>(index)) {
      children.emplace_back(child.start_s, child.end_s);
    }
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = span.start_s;
  for (const auto& [start, end] : children) {
    const double from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return (span.end_s - span.start_s) - covered;
}

std::string Tracer::to_json() const {
  fap::util::JsonWriter json;
  json.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    json.begin_object();
    json.key("run_id").value(run_id_);
    json.key("index").value(i);
    json.key("name").value(span.name);
    json.key("parent").value(static_cast<long long>(span.parent));
    json.key("start_s").value(span.start_s);
    json.key("end_s").value(span.end_s);
    json.key("self_s").value(self_s(i));
    json.end_object();
  }
  json.end_array();
  return json.str();
}

}  // namespace perfbench
