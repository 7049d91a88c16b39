// Sample statistics for the end-to-end benchmark: medians, quartiles and
// percentiles, the rule that refuses a tail without enough samples beyond
// it, and the per-phase ledger of attempted and failed operations.
//
// A failed operation enters a latency sample set as +infinity: it misses
// every limit, so failures push percentiles up instead of vanishing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace perf_e2e {

inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// A tail is reported only when at least this many samples lie above it.
inline constexpr std::size_t kMinSamplesBeyondTail = 10;

/// Median; the mean of the two middle values for an even count.
/// Throws std::invalid_argument on an empty set.
[[nodiscard]] double median(std::vector<double> values);

/// First and third quartiles by the method of Python's
/// statistics.quantiles(values, n=4) (the default, "exclusive").
/// Needs at least two values.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

/// Percentile `q` in [0, 1] by linear interpolation between the closest
/// ranks (numpy's default). +infinity samples sort last.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Samples strictly greater than `threshold`.
[[nodiscard]] std::size_t count_above(const std::vector<double>& values,
                                      double threshold);

/// Thrown when a reported tail has fewer than kMinSamplesBeyondTail
/// samples above it. The benchmark lets it end the run without a result.
class UnsupportedTail : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One timing as reported: the median, an optional tail, and the sample
/// count behind both.
struct Timing {
  double median = 0.0;
  double tail = 0.0;        // 0 when no tail was asked for
  std::size_t samples = 0;  // every sample, failures included
  std::size_t beyond = 0;   // samples strictly above `tail`
  Quartiles spread{};       // q1/q3 (equal to the median below 2 samples)
};

/// Median (and quartiles) of `samples`. Throws std::invalid_argument on
/// an empty set.
[[nodiscard]] Timing summarize(const std::vector<double>& samples);

/// Median plus the `tail_q` percentile. Throws UnsupportedTail naming
/// `what` when fewer than kMinSamplesBeyondTail samples lie above the
/// tail, or when failures push the tail to infinity.
[[nodiscard]] Timing summarize_tail(const std::vector<double>& samples,
                                    double tail_q, const std::string& what);

/// How one operation ended.
enum class Outcome {
  kOk,
  kError,     // connect/send/receive failure or timeout
  kStatus,    // reply arrived with a non-2xx status
  kMismatch,  // reply bytes differ from the in-process answer
};

/// Attempted and failed operations of one phase. Not thread-safe: each
/// client thread keeps its own and the phase merges them.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;  // the kMismatch share of `failed`

  void record(Outcome outcome);
  void merge(const Tally& other);
};

}  // namespace perf_e2e
