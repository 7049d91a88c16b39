// Small descriptive-statistics toolkit backing the figure benches
// (CDF points for Fig. 4, box stats for Fig. 2).
#pragma once

#include <cstddef>
#include <span>

namespace gpumine::analysis {

/// Five-number summary for a box plot.
struct BoxStats {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

[[nodiscard]] BoxStats box_stats(std::span<const double> values);

/// Fraction of values <= x.
[[nodiscard]] double cdf_at(std::span<const double> values, double x);

}  // namespace gpumine::analysis
