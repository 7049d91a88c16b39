#include "analysis/stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/ensure.hpp"

namespace gpumine::analysis {

BoxStats box_stats(std::span<const double> values) {
  GPUMINE_CHECK_ARG(!values.empty(), "box_stats of empty data");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  };
  return BoxStats{sorted.front(), at(0.25), at(0.50), at(0.75), sorted.back(),
                  sorted.size()};
}

double cdf_at(std::span<const double> values, double x) {
  GPUMINE_CHECK_ARG(!values.empty(), "cdf_at of empty data");
  std::size_t n = 0;
  for (double v : values) {
    if (v <= x) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(values.size());
}

}  // namespace gpumine::analysis
