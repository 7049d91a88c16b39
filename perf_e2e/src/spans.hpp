// Per-layer numbers derived from recorded spans, so the exported Chrome
// trace and the printed per-layer table cannot disagree.
//
// A span's parent is the innermost span on the same thread whose
// interval contains it. Self time is a span's duration minus the time
// its direct children cover; a phase span's coverage is the share of its
// duration that its direct children (the layer calls) cover.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/trace.hpp"

namespace perf_e2e {

struct SpanTimes {
  std::vector<double> duration_ms;  // one entry per span instance
  std::vector<double> self_ms;
};

struct SpanReport {
  std::map<std::string, SpanTimes> by_name;
  /// Lowest coverage (percent) over the instances of each phase span.
  std::map<std::string, double> min_coverage_pct;
};

/// `events` as returned by Tracer::collect(). Spans whose name starts
/// with `phase_prefix` are phase spans.
[[nodiscard]] SpanReport analyze_spans(
    const std::vector<gpumine::TraceEvent>& events,
    const std::string& phase_prefix = "phase.");

}  // namespace perf_e2e
