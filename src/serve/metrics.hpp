// Server-side observability: per-endpoint request counters and latency
// histograms, cheap enough to update on every request from any thread.
//
// Latencies land in a fixed array of power-of-two nanosecond buckets
// (bucket i counts latencies with bit_width(ns) == i, i.e. the range
// [2^(i-1), 2^i)), each an independent relaxed atomic — recording is a
// clock read plus one fetch_add, with no locks on the serving path.
// Percentiles are read back as the upper bound of the bucket holding
// the requested rank: an estimate within 2x of the true latency, which
// is enough to compare a tail with what clients see (perf_e2e reports
// the query p99 from /stats against its clients' as
// serve.reported_p99_gap).
//
// ServerMetrics aggregates one histogram per endpoint plus error and
// reload counters; snapshot() returns a consistent-enough copy for
// /stats and /metrics (individual counters are exact, cross-counter skew
// is bounded by in-flight requests). Both endpoints render a ServerStats
// through the field lists below (common/metrics.hpp), so the exposition
// is built per scrape from that copy and the serving path records into
// nothing but these atomics.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.hpp"

namespace gpumine::serve {

/// Lock-free log2-bucket latency histogram (nanoseconds). Alongside the
/// bucket counts it tracks the exact sum, min and max, so /metrics can
/// export a true Prometheus `_sum` and /stats can report the real mean
/// rather than a 2x-quantized estimate.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 48;  // up to ~78 hours

  void record(std::uint64_t nanos) {
    std::size_t bucket = std::bit_width(nanos);
    if (bucket >= kBuckets) bucket = kBuckets - 1;
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(nanos, std::memory_order_relaxed);
    update_min(nanos);
    update_max(nanos);
  }

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const auto& b : buckets_) sum += b.load(std::memory_order_relaxed);
    return sum;
  }

  /// Exact sum of all recorded latencies, in nanoseconds.
  [[nodiscard]] std::uint64_t sum_ns() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Exact smallest recorded latency; 0 when nothing has been recorded.
  [[nodiscard]] std::uint64_t min_ns() const {
    const std::uint64_t v = min_.load(std::memory_order_relaxed);
    return v == kNoMin ? 0 : v;
  }
  /// Exact largest recorded latency; 0 when nothing has been recorded.
  [[nodiscard]] std::uint64_t max_ns() const {
    return max_.load(std::memory_order_relaxed);
  }

  /// Raw (non-cumulative) count of bucket `i` — the /metrics exporter
  /// re-buckets these into Prometheus cumulative `le` buckets.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Upper bound (in nanoseconds) of the bucket holding the p-quantile
  /// observation, p in [0, 1]. 0 when nothing has been recorded.
  [[nodiscard]] std::uint64_t percentile_ns(double p) const;

 private:
  static constexpr std::uint64_t kNoMin = ~std::uint64_t{0};

  void update_min(std::uint64_t nanos) {
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (nanos < cur && !min_.compare_exchange_weak(
                              cur, nanos, std::memory_order_relaxed,
                              std::memory_order_relaxed)) {
    }
  }
  void update_max(std::uint64_t nanos) {
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (nanos > cur && !max_.compare_exchange_weak(
                              cur, nanos, std::memory_order_relaxed,
                              std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{kNoMin};
  std::atomic<std::uint64_t> max_{0};
};

/// The endpoints the handler distinguishes. Liveness probes (kHealth)
/// and scrapes (kMetrics) get their own buckets so cheap machine-driven
/// traffic does not skew kOther's latency percentiles or error counts.
enum class Endpoint : std::size_t {
  kQuery = 0,
  kSupport,
  kStats,
  kReload,
  kHealth,
  kMetrics,
  kOther,
};
inline constexpr std::size_t kNumEndpoints = 7;

[[nodiscard]] const char* endpoint_name(Endpoint endpoint);

/// Point-in-time copy of one endpoint's counters.
struct EndpointSnapshot {
  std::string name;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;  // non-2xx responses
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  // Exact (not bucket-quantized) latency aggregates.
  double mean_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
  std::uint64_t sum_ns = 0;
  // Raw per-bucket counts (LatencyHistogram layout), exported as the
  // /metrics latency histogram; not part of the /stats JSON.
  std::vector<std::uint64_t> bucket_counts;

  bool operator==(const EndpointSnapshot&) const = default;
};

struct MetricsSnapshot {
  std::vector<EndpointSnapshot> endpoints;
  std::uint64_t total_requests = 0;
  std::uint64_t reloads = 0;  // every reload attempt, failed ones included
  std::uint64_t reload_failures = 0;
  double uptime_seconds = 0.0;
  double qps = 0.0;  // total_requests / uptime

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Shape of the currently loaded rule snapshot.
struct SnapshotShape {
  std::uint64_t db_size = 0;
  std::uint64_t items = 0;
  std::uint64_t itemsets = 0;
  std::uint64_t rules = 0;
  std::uint64_t keywords_with_rules = 0;

  bool operator==(const SnapshotShape&) const = default;
};

/// Everything GET /stats (render_json) and GET /metrics
/// (render_exposition) report.
struct ServerStats {
  MetricsSnapshot server;
  SnapshotShape snapshot;
};

/// Field lists for common/metrics.hpp's sinks.
void describe(const EndpointSnapshot& endpoint, MetricSink& sink);
void describe(const MetricsSnapshot& metrics, MetricSink& sink);
void describe(const SnapshotShape& shape, MetricSink& sink);
void describe(const ServerStats& stats, MetricSink& sink);

/// Content type for the /metrics response.
inline constexpr const char* kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";

class ServerMetrics {
 public:
  ServerMetrics() : start_(std::chrono::steady_clock::now()) {}

  /// Records one finished request: endpoint, HTTP status, wall time.
  void record(Endpoint endpoint, int status, std::uint64_t nanos);

  void record_reload(bool ok);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct PerEndpoint {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> errors{0};
    LatencyHistogram latency;
  };

  std::chrono::steady_clock::time_point start_;
  std::array<PerEndpoint, kNumEndpoints> endpoints_{};
  std::atomic<std::uint64_t> reloads_{0};
  std::atomic<std::uint64_t> reload_failures_{0};
};

}  // namespace gpumine::serve
