#include "spans.hpp"

#include <algorithm>
#include <string_view>
#include <tuple>

namespace perf_e2e {

SpanReport analyze_spans(const std::vector<gpumine::TraceEvent>& events,
                         const std::string& phase_prefix) {
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Parents before children: by thread, start, then longest first.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = events[a];
    const auto& y = events[b];
    return std::make_tuple(x.tid, x.start_ns, ~x.duration_ns) <
           std::make_tuple(y.tid, y.start_ns, ~y.duration_ns);
  });

  std::vector<std::uint64_t> child_ns(events.size(), 0);
  std::vector<std::size_t> open;  // ancestors of the current span
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const auto& event = events[i];
    if (k > 0 && events[order[k - 1]].tid != event.tid) open.clear();
    const std::uint64_t end = event.start_ns + event.duration_ns;
    while (!open.empty()) {
      const auto& top = events[open.back()];
      if (top.start_ns <= event.start_ns &&
          end <= top.start_ns + top.duration_ns) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += event.duration_ns;
    open.push_back(i);
  }

  SpanReport report;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& event = events[i];
    const std::string name = event.name == nullptr ? "" : event.name;
    SpanTimes& times = report.by_name[name];
    const std::uint64_t covered = std::min(child_ns[i], event.duration_ns);
    times.duration_ms.push_back(static_cast<double>(event.duration_ns) / 1e6);
    times.self_ms.push_back(
        static_cast<double>(event.duration_ns - covered) / 1e6);
    if (std::string_view(name).substr(0, phase_prefix.size()) ==
        phase_prefix) {
      const double pct =
          event.duration_ns == 0
              ? 100.0
              : 100.0 * static_cast<double>(covered) /
                    static_cast<double>(event.duration_ns);
      const auto [it, fresh] = report.min_coverage_pct.emplace(name, pct);
      if (!fresh) it->second = std::min(it->second, pct);
    }
  }
  return report;
}

}  // namespace perf_e2e
