#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace gpumine::serve {
namespace {

double to_us(std::uint64_t nanos) {
  return static_cast<double>(nanos) * 1e-3;
}

/// Prometheus `le` bounds (seconds) matching LatencyHistogram's log2
/// nanosecond buckets: bucket i counts latencies with bit_width == i,
/// upper bound 2^i - 1 ns. The saturating top bucket becomes +Inf.
std::vector<double> latency_bounds_seconds() {
  std::vector<double> bounds;
  bounds.reserve(LatencyHistogram::kBuckets - 1);
  for (std::size_t i = 0; i + 1 < LatencyHistogram::kBuckets; ++i) {
    const std::uint64_t ub_ns = i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
    bounds.push_back(static_cast<double>(ub_ns) / 1e9);
  }
  return bounds;
}

}  // namespace

std::uint64_t LatencyHistogram::percentile_ns(double p) const {
  std::array<std::uint64_t, kBuckets> counts;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the requested observation, 1-based; ceil keeps p=0.5 of a
  // 2-element histogram on the first element.
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen >= rank) {
      // Bucket i holds values with bit_width == i: upper bound 2^i - 1.
      return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
    }
  }
  return (std::uint64_t{1} << (kBuckets - 1)) - 1;
}

const char* endpoint_name(Endpoint endpoint) {
  switch (endpoint) {
    case Endpoint::kQuery:
      return "query";
    case Endpoint::kSupport:
      return "support";
    case Endpoint::kStats:
      return "stats";
    case Endpoint::kReload:
      return "reload";
    case Endpoint::kHealth:
      return "health";
    case Endpoint::kMetrics:
      return "metrics";
    case Endpoint::kOther:
      return "other";
  }
  return "unknown";
}

void ServerMetrics::record(Endpoint endpoint, int status,
                           std::uint64_t nanos) {
  PerEndpoint& e = endpoints_[static_cast<std::size_t>(endpoint)];
  e.requests.fetch_add(1, std::memory_order_relaxed);
  if (status < 200 || status >= 300) {
    e.errors.fetch_add(1, std::memory_order_relaxed);
  }
  e.latency.record(nanos);
}

void ServerMetrics::record_reload(bool ok) {
  reloads_.fetch_add(1, std::memory_order_relaxed);
  if (!ok) reload_failures_.fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot ServerMetrics::snapshot() const {
  MetricsSnapshot out;
  out.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  for (std::size_t i = 0; i < kNumEndpoints; ++i) {
    const PerEndpoint& e = endpoints_[i];
    EndpointSnapshot s;
    s.name = endpoint_name(static_cast<Endpoint>(i));
    s.requests = e.requests.load(std::memory_order_relaxed);
    s.errors = e.errors.load(std::memory_order_relaxed);
    s.p50_us = to_us(e.latency.percentile_ns(0.50));
    s.p95_us = to_us(e.latency.percentile_ns(0.95));
    s.p99_us = to_us(e.latency.percentile_ns(0.99));
    s.sum_ns = e.latency.sum_ns();
    const std::uint64_t observed = e.latency.total();
    s.mean_us = observed == 0 ? 0.0
                              : to_us(s.sum_ns) /
                                    static_cast<double>(observed);
    s.min_us = to_us(e.latency.min_ns());
    s.max_us = to_us(e.latency.max_ns());
    s.bucket_counts.resize(LatencyHistogram::kBuckets);
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
      s.bucket_counts[b] = e.latency.bucket_count(b);
    }
    out.total_requests += s.requests;
    out.endpoints.push_back(std::move(s));
  }
  out.reloads = reloads_.load(std::memory_order_relaxed);
  out.reload_failures = reload_failures_.load(std::memory_order_relaxed);
  out.qps = out.uptime_seconds > 0.0
                ? static_cast<double>(out.total_requests) / out.uptime_seconds
                : 0.0;
  return out;
}

void describe(const EndpointSnapshot& e, MetricSink& sink) {
  static const std::vector<double> bounds = latency_bounds_seconds();
  const MetricLabels endpoint{{"endpoint", e.name}};
  sink.text("name", e.name);
  sink.value("requests", e.requests,
             {"gpumine_server_requests_total", MetricType::kCounter,
              "Requests handled, by endpoint"},
             endpoint);
  sink.value("errors", e.errors,
             {"gpumine_server_errors_total", MetricType::kCounter,
              "Non-2xx responses, by endpoint"},
             endpoint);
  sink.value("p50_us", e.p50_us);
  sink.value("p95_us", e.p95_us);
  sink.value("p99_us", e.p99_us);
  sink.value("mean_us", e.mean_us);
  sink.value("min_us", e.min_us);
  sink.value("max_us", e.max_us);
  sink.histogram({"gpumine_server_request_latency_seconds",
                  MetricType::kHistogram, "Request wall time, by endpoint"},
                 endpoint, bounds, e.bucket_counts,
                 static_cast<double>(e.sum_ns) / 1e9);
}

void describe(const MetricsSnapshot& m, MetricSink& sink) {
  const MetricFamily reloads{"gpumine_server_reloads_total",
                             MetricType::kCounter,
                             "Snapshot reload attempts, by result"};
  sink.value("uptime_seconds", m.uptime_seconds,
             {"gpumine_server_uptime_seconds", MetricType::kGauge,
              "Seconds since the server started"});
  sink.value("total_requests", m.total_requests);
  sink.value("qps", m.qps);
  sink.value("reloads", m.reloads);
  sink.value("reload_failures", m.reload_failures, reloads,
             {{"result", "error"}});
  // The two counters are read separately, so a reload failing between
  // the reads can show one more failure than attempts.
  sink.value("", m.reloads - std::min(m.reloads, m.reload_failures), reloads,
             {{"result", "ok"}});
  sink.nested_list("endpoints", m.endpoints);
}

void describe(const SnapshotShape& shape, MetricSink& sink) {
  sink.value("db_size", shape.db_size,
             {"gpumine_snapshot_db_size", MetricType::kGauge,
              "Transactions in the loaded rule snapshot"});
  sink.value("items", shape.items,
             {"gpumine_snapshot_items", MetricType::kGauge,
              "Items in the loaded rule snapshot"});
  sink.value("itemsets", shape.itemsets,
             {"gpumine_snapshot_itemsets", MetricType::kGauge,
              "Frequent itemsets in the loaded rule snapshot"});
  sink.value("rules", shape.rules,
             {"gpumine_snapshot_rules", MetricType::kGauge,
              "Rules in the loaded rule snapshot"});
  sink.value("keywords_with_rules", shape.keywords_with_rules,
             {"gpumine_snapshot_keywords_with_rules", MetricType::kGauge,
              "Keywords with at least one rule in the loaded snapshot"});
}

void describe(const ServerStats& stats, MetricSink& sink) {
  sink.nested("server", stats.server);
  sink.nested("snapshot", stats.snapshot);
}

}  // namespace gpumine::serve
