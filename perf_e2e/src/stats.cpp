#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perf_e2e {
namespace {

void require_values(const std::vector<double>& values, std::size_t n,
                    const char* what) {
  if (values.size() < n) {
    throw std::invalid_argument(std::string(what) + ": needs at least " +
                                std::to_string(n) + " value(s), got " +
                                std::to_string(values.size()));
  }
}

// Linear interpolation at fractional rank `h` of a sorted set, keeping
// +infinity when either neighbour is infinite (inf - inf would be NaN).
double at_rank(const std::vector<double>& sorted, double h) {
  const double floor_h = std::floor(h);
  const auto lo = static_cast<std::size_t>(floor_h);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = h - floor_h;
  if (frac == 0.0 || lo == hi) return sorted[lo];
  if (std::isinf(sorted[lo]) || std::isinf(sorted[hi])) return sorted[hi];
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

double median(std::vector<double> values) {
  require_values(values, 1, "median");
  std::sort(values.begin(), values.end());
  return at_rank(values, 0.5 * static_cast<double>(values.size() - 1));
}

Quartiles quartiles(std::vector<double> values) {
  require_values(values, 2, "quartiles");
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive") step for step, including its
  // clamp of j to [1, n-1], which extrapolates on very small sets.
  const auto n = static_cast<long long>(values.size());
  const long long m = n + 1;
  const auto cut = [&](long long i) {
    const long long j = std::clamp(i * m / 4, 1LL, n - 1);
    const long long delta = i * m - j * 4;
    return (values[static_cast<std::size_t>(j - 1)] *
                static_cast<double>(4 - delta) +
            values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(3)};
}

double percentile(std::vector<double> values, double q) {
  require_values(values, 1, "percentile");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile: q must lie in [0, 1]");
  }
  std::sort(values.begin(), values.end());
  return at_rank(values, q * static_cast<double>(values.size() - 1));
}

std::size_t count_above(const std::vector<double>& values, double threshold) {
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [threshold](double v) { return v > threshold; }));
}

Timing summarize(const std::vector<double>& samples) {
  Timing timing;
  timing.median = median(samples);
  timing.samples = samples.size();
  timing.spread = samples.size() >= 2
                      ? quartiles(samples)
                      : Quartiles{timing.median, timing.median};
  return timing;
}

Timing summarize_tail(const std::vector<double>& samples, double tail_q,
                      const std::string& what) {
  Timing timing = summarize(samples);
  timing.tail = percentile(samples, tail_q);
  timing.beyond = count_above(samples, timing.tail);
  if (std::isinf(timing.tail)) {
    throw UnsupportedTail(what + ": more than " +
                          std::to_string(std::lround(100.0 * (1.0 - tail_q))) +
                          "% of the operations failed, so the tail is missed");
  }
  if (timing.beyond < kMinSamplesBeyondTail) {
    throw UnsupportedTail(
        what + ": p" + std::to_string(std::lround(tail_q * 100.0)) +
        " has " + std::to_string(timing.beyond) + " of " +
        std::to_string(samples.size()) + " samples beyond it; at least " +
        std::to_string(kMinSamplesBeyondTail) + " are required");
  }
  return timing;
}

void Tally::record(Outcome outcome) {
  ++attempted;
  if (outcome != Outcome::kOk) ++failed;
  if (outcome == Outcome::kMismatch) ++mismatched;
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  mismatched += other.mismatched;
}

}  // namespace perf_e2e
