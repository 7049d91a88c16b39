#include "serve/metrics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace gpumine::serve {
namespace {

TEST(LatencyHistogram, EmptyReportsZero) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.total(), 0u);
  EXPECT_EQ(histogram.percentile_ns(0.5), 0u);
  EXPECT_EQ(histogram.percentile_ns(0.99), 0u);
}

TEST(LatencyHistogram, PercentileIsTheBucketUpperBound) {
  LatencyHistogram histogram;
  histogram.record(1000);  // bit_width 10 -> bucket upper bound 1023
  EXPECT_EQ(histogram.total(), 1u);
  EXPECT_EQ(histogram.percentile_ns(0.5), 1023u);
  EXPECT_EQ(histogram.percentile_ns(1.0), 1023u);
}

TEST(LatencyHistogram, TailLandsInTheSlowBucket) {
  LatencyHistogram histogram;
  for (int i = 0; i < 90; ++i) histogram.record(100);    // ub 127
  for (int i = 0; i < 10; ++i) histogram.record(900000); // ub 1048575
  EXPECT_EQ(histogram.total(), 100u);
  EXPECT_EQ(histogram.percentile_ns(0.50), 127u);
  EXPECT_EQ(histogram.percentile_ns(0.90), 127u);
  EXPECT_EQ(histogram.percentile_ns(0.95), 1048575u);
  EXPECT_EQ(histogram.percentile_ns(0.99), 1048575u);
}

TEST(LatencyHistogram, ExtremeValuesClampToTheLastBucket) {
  LatencyHistogram histogram;
  histogram.record(0);
  EXPECT_EQ(histogram.percentile_ns(0.5), 0u);
  histogram.record(~std::uint64_t{0});
  EXPECT_EQ(histogram.percentile_ns(1.0),
            (std::uint64_t{1} << (LatencyHistogram::kBuckets - 1)) - 1);
}

TEST(LatencyHistogram, TracksExactSumMinMax) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.sum_ns(), 0u);
  EXPECT_EQ(histogram.min_ns(), 0u);  // empty: min reports 0
  EXPECT_EQ(histogram.max_ns(), 0u);
  histogram.record(700);
  histogram.record(100);
  histogram.record(900000);
  EXPECT_EQ(histogram.sum_ns(), 900800u);
  EXPECT_EQ(histogram.min_ns(), 100u);
  EXPECT_EQ(histogram.max_ns(), 900000u);
}

TEST(LatencyHistogram, SingleSampleSumEqualsValue) {
  LatencyHistogram histogram;
  histogram.record(12345);
  EXPECT_EQ(histogram.sum_ns(), 12345u);
  EXPECT_EQ(histogram.min_ns(), 12345u);
  EXPECT_EQ(histogram.max_ns(), 12345u);
}

TEST(LatencyHistogram, BucketCountsExposeTheRawDistribution) {
  LatencyHistogram histogram;
  histogram.record(100);  // bit_width 7 -> bucket 7
  histogram.record(100);
  histogram.record(~std::uint64_t{0});  // clamps to the top bucket
  EXPECT_EQ(histogram.bucket_count(7), 2u);
  EXPECT_EQ(histogram.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
}

TEST(LatencyHistogram, ConcurrentRecordsAllLand) {
  LatencyHistogram histogram;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) histogram.record(500);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.total(), 4000u);
}

TEST(ServerMetrics, CountsRequestsErrorsAndReloads) {
  ServerMetrics metrics;
  metrics.record(Endpoint::kQuery, 200, 1000);
  metrics.record(Endpoint::kQuery, 404, 2000);
  metrics.record(Endpoint::kSupport, 200, 500);
  metrics.record_reload(true);
  metrics.record_reload(false);

  const MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.total_requests, 3u);
  EXPECT_EQ(snapshot.reloads, 2u);
  EXPECT_EQ(snapshot.reload_failures, 1u);
  EXPECT_GT(snapshot.uptime_seconds, 0.0);
  ASSERT_EQ(snapshot.endpoints.size(), kNumEndpoints);
  EXPECT_EQ(snapshot.endpoints[0].name, "query");
  EXPECT_EQ(snapshot.endpoints[0].requests, 2u);
  EXPECT_EQ(snapshot.endpoints[0].errors, 1u);
  EXPECT_GT(snapshot.endpoints[0].p99_us, 0.0);
  EXPECT_EQ(snapshot.endpoints[1].name, "support");
  EXPECT_EQ(snapshot.endpoints[1].requests, 1u);
  EXPECT_EQ(snapshot.endpoints[1].errors, 0u);
  // Exact aggregates for the query endpoint: 1000ns and 2000ns samples.
  EXPECT_EQ(snapshot.endpoints[0].sum_ns, 3000u);
  EXPECT_DOUBLE_EQ(snapshot.endpoints[0].mean_us, 1.5);
  EXPECT_DOUBLE_EQ(snapshot.endpoints[0].min_us, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.endpoints[0].max_us, 2.0);
  EXPECT_EQ(snapshot.endpoints[0].bucket_counts.size(),
            LatencyHistogram::kBuckets);
}

TEST(ServerMetrics, JsonCarriesEveryEndpoint) {
  ServerMetrics metrics;
  metrics.record(Endpoint::kStats, 200, 100);
  const std::string json = render_json(metrics.snapshot());
  for (const char* name : {"query", "support", "stats", "reload", "health",
                           "metrics", "other"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << json;
  }
  EXPECT_NE(json.find("\"total_requests\":1"), std::string::npos);
  EXPECT_NE(json.find("\"mean_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"min_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"max_us\":"), std::string::npos);
}

TEST(EndpointNames, AreStable) {
  EXPECT_STREQ(endpoint_name(Endpoint::kQuery), "query");
  EXPECT_STREQ(endpoint_name(Endpoint::kReload), "reload");
  EXPECT_STREQ(endpoint_name(Endpoint::kHealth), "health");
  EXPECT_STREQ(endpoint_name(Endpoint::kMetrics), "metrics");
  EXPECT_STREQ(endpoint_name(Endpoint::kOther), "other");
}

}  // namespace
}  // namespace gpumine::serve
