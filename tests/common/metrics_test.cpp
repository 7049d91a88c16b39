// The metric sinks (JSON, --stats text, Prometheus exposition) and the
// self-contained exposition lint that serve --check / metrics-check run.
#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

namespace gpumine {
namespace {

constexpr MetricType kCounter = MetricType::kCounter;
const MetricFamily kSeconds{"test_seconds", MetricType::kHistogram, "help"};
const std::vector<double> kBounds{0.1, 1.0};

std::string exposition(const std::function<void(MetricSink&)>& fields) {
  return render_metrics(MetricFormat::kExposition, fields);
}

TEST(Exposition, EmptyHistogramRendersZeroCountSumAndInf) {
  const std::vector<std::uint64_t> counts{0, 0, 0};
  const std::string text = exposition([&](MetricSink& sink) {
    sink.histogram(kSeconds, {}, kBounds, counts, 0.0);
  });
  EXPECT_NE(text.find("test_seconds_count 0"), std::string::npos) << text;
  EXPECT_NE(text.find("test_seconds_sum 0"), std::string::npos) << text;
  EXPECT_NE(text.find("test_seconds_bucket{le=\"+Inf\"} 0"),
            std::string::npos)
      << text;
  EXPECT_TRUE(validate_prometheus_text(text).ok());
}

TEST(Exposition, HistogramBucketsAreCumulative) {
  const std::vector<std::uint64_t> counts{1, 2, 3};  // last = +Inf
  const std::string text = exposition([&](MetricSink& sink) {
    sink.histogram(kSeconds, {{"k", "v"}}, kBounds, counts, 2.5);
  });
  EXPECT_EQ(text,
            "# HELP test_seconds help\n"
            "# TYPE test_seconds histogram\n"
            "test_seconds_bucket{k=\"v\",le=\"0.1\"} 1\n"
            "test_seconds_bucket{k=\"v\",le=\"1\"} 3\n"
            "test_seconds_bucket{k=\"v\",le=\"+Inf\"} 6\n"
            "test_seconds_sum{k=\"v\"} 2.5\n"
            "test_seconds_count{k=\"v\"} 6\n");
}

TEST(Exposition, LabelOrderIsNormalized) {
  const std::string text = exposition([](MetricSink& sink) {
    sink.value("", std::uint64_t{3}, {"t_total", kCounter, "h"},
               {{"b", "2"}, {"a", "1"}});
  });
  EXPECT_NE(text.find("t_total{a=\"1\",b=\"2\"} 3\n"), std::string::npos)
      << text;
}

// Families sort by name and series by labels (as strings, so "10" comes
// before "2"), whatever order the fields were listed in.
TEST(Exposition, OutputDoesNotDependOnInsertionOrder) {
  const MetricFamily gauge{"a_gauge", MetricType::kGauge, "g"};
  const MetricFamily counter{"b_total", kCounter, "c"};
  std::vector<std::uint64_t> per_worker(11);  // workers 0..10
  std::iota(per_worker.begin(), per_worker.end(), 5);
  const std::string text = exposition([&](MetricSink& sink) {
    sink.value("", 1.5, gauge, {{"kind", "x"}});
    sink.value("", 2.5, gauge, {{"kind", "y"}});
    sink.list("", per_worker, counter, "worker");
  });
  const std::string reversed = exposition([&](MetricSink& sink) {
    sink.list("", per_worker, counter, "worker");
    sink.value("", 2.5, gauge, {{"kind", "y"}});
    sink.value("", 1.5, gauge, {{"kind", "x"}});
  });
  EXPECT_EQ(text, reversed);
  EXPECT_LT(text.find("a_gauge{kind=\"x\"}"),
            text.find("a_gauge{kind=\"y\"}"));
  EXPECT_LT(text.find("a_gauge"), text.find("b_total"));
  EXPECT_LT(text.find("b_total{worker=\"10\"} 15"),
            text.find("b_total{worker=\"2\"} 7"));
}

TEST(Exposition, RenderedTextLints) {
  const std::vector<std::uint64_t> counts{0, 1, 0};
  const std::string text = exposition([&](MetricSink& sink) {
    sink.value("", std::uint64_t{3}, {"ok_total", kCounter, "a counter"},
               {{"kind", "x"}});
    sink.value("", 1.25, {"ok_gauge", MetricType::kGauge, "a gauge"});
    sink.histogram({"ok_seconds", MetricType::kHistogram, "a histogram"}, {},
                   kBounds, counts, 0.2);
  });
  const auto linted = validate_prometheus_text(text);
  ASSERT_TRUE(linted.ok()) << linted.error().to_string();
  // Histogram samples count per line: 3 buckets + sum + count.
  EXPECT_EQ(linted.value(), 7u);
}

// A two-level metrics struct, to pin what each sink takes from a field
// list: keys go to JSON and --stats, families to the exposition, and a
// nested struct at its defaults is left out of --stats only.
struct Stage {
  std::uint64_t runs = 0;
  bool operator==(const Stage&) const = default;
};

void describe(const Stage& stage, MetricSink& sink) {
  sink.title("stage");
  sink.value("runs", stage.runs, {"t_runs_total", kCounter, "runs"});
}

struct Job {
  double seconds = 0.0;
  std::vector<std::uint64_t> per_worker;
  std::string tier;
  Stage stage;
};

void describe(const Job& job, MetricSink& sink) {
  sink.title("job");
  sink.value("seconds", job.seconds);
  sink.value("", 2.0, {"t_derived", MetricType::kGauge, "derived"});
  sink.list("per_worker", job.per_worker,
            {"t_worker_total", kCounter, "per worker"}, "worker", 1);
  sink.text("tier", job.tier);
  sink.nested("stage", job.stage);
}

TEST(MetricSink, EachSinkRendersItsPartOfTheFieldList) {
  Job job;
  job.seconds = 1.0 / 3.0;
  job.per_worker = {3, 4};
  job.tier = "a\"b";
  EXPECT_EQ(render_json(job),
            "{\"seconds\":0.333333,\"per_worker\":[3,4],\"tier\":\"a\\\"b\","
            "\"stage\":{\"runs\":0}}");
  EXPECT_EQ(render_stats(job),
            "job:\n  seconds: 0.333333\n  per_worker: 3 4\n  tier: a\"b\n");
  job.stage.runs = 7;
  EXPECT_EQ(render_stats(job),
            "job:\n  seconds: 0.333333\n  per_worker: 3 4\n  tier: a\"b\n"
            "stage:\n  runs: 7\n");
  EXPECT_EQ(render_exposition(job),
            "# HELP t_derived derived\n"
            "# TYPE t_derived gauge\n"
            "t_derived 2\n"
            "# HELP t_runs_total runs\n"
            "# TYPE t_runs_total counter\n"
            "t_runs_total 7\n"
            "# HELP t_worker_total per worker\n"
            "# TYPE t_worker_total counter\n"
            "t_worker_total{worker=\"1\"} 3\n"
            "t_worker_total{worker=\"2\"} 4\n");
}

TEST(PrometheusLint, RejectsSamplesWithoutHelpOrType) {
  EXPECT_FALSE(validate_prometheus_text("no_meta_total 1\n").ok());
  EXPECT_FALSE(validate_prometheus_text("# HELP x_total h\nx_total 1\n").ok());
  EXPECT_FALSE(
      validate_prometheus_text("# TYPE x_total counter\nx_total 1\n").ok());
}

TEST(PrometheusLint, RejectsDuplicateSeries) {
  const std::string text =
      "# HELP x_total h\n"
      "# TYPE x_total counter\n"
      "x_total{k=\"v\"} 1\n"
      "x_total{k=\"v\"} 2\n";
  const auto linted = validate_prometheus_text(text);
  ASSERT_FALSE(linted.ok());
  EXPECT_NE(linted.error().to_string().find("duplicate"), std::string::npos);
}

TEST(PrometheusLint, RejectsInterleavedFamilies) {
  const std::string text =
      "# HELP a_total h\n"
      "# TYPE a_total counter\n"
      "a_total 1\n"
      "# HELP b_total h\n"
      "# TYPE b_total counter\n"
      "b_total 1\n"
      "a_total{k=\"v\"} 2\n";
  EXPECT_FALSE(validate_prometheus_text(text).ok());
}

TEST(PrometheusLint, RejectsNegativeAndNonFiniteCounters) {
  const std::string negative =
      "# HELP x_total h\n# TYPE x_total counter\nx_total -1\n";
  EXPECT_FALSE(validate_prometheus_text(negative).ok());
  const std::string nan =
      "# HELP x_total h\n# TYPE x_total counter\nx_total NaN\n";
  EXPECT_FALSE(validate_prometheus_text(nan).ok());
}

TEST(PrometheusLint, RejectsHistogramWithoutInfBucket) {
  const std::string text =
      "# HELP h_seconds h\n"
      "# TYPE h_seconds histogram\n"
      "h_seconds_bucket{le=\"1\"} 1\n"
      "h_seconds_sum 0.5\n"
      "h_seconds_count 1\n";
  const auto linted = validate_prometheus_text(text);
  ASSERT_FALSE(linted.ok());
  EXPECT_NE(linted.error().to_string().find("+Inf"), std::string::npos);
}

TEST(PrometheusLint, RejectsNonCumulativeHistogramBuckets) {
  const std::string text =
      "# HELP h_seconds h\n"
      "# TYPE h_seconds histogram\n"
      "h_seconds_bucket{le=\"1\"} 2\n"
      "h_seconds_bucket{le=\"+Inf\"} 1\n"
      "h_seconds_sum 0.5\n"
      "h_seconds_count 1\n";
  EXPECT_FALSE(validate_prometheus_text(text).ok());
}

TEST(PrometheusLint, RejectsCountDisagreeingWithInfBucket) {
  const std::string text =
      "# HELP h_seconds h\n"
      "# TYPE h_seconds histogram\n"
      "h_seconds_bucket{le=\"+Inf\"} 2\n"
      "h_seconds_sum 0.5\n"
      "h_seconds_count 3\n";
  EXPECT_FALSE(validate_prometheus_text(text).ok());
}

TEST(PrometheusLint, RejectsMalformedNamesAndEmptyDocuments) {
  EXPECT_FALSE(validate_prometheus_text("").ok());
  EXPECT_FALSE(
      validate_prometheus_text("# HELP 9bad h\n# TYPE 9bad gauge\n9bad 1\n")
          .ok());
}

TEST(PrometheusLint, CountsDistinctSeries) {
  const std::string text =
      "# HELP a_total h\n"
      "# TYPE a_total counter\n"
      "a_total{k=\"1\"} 1\n"
      "a_total{k=\"2\"} 1\n"
      "# HELP b_gauge h\n"
      "# TYPE b_gauge gauge\n"
      "b_gauge -0.5\n";
  const auto linted = validate_prometheus_text(text);
  ASSERT_TRUE(linted.ok()) << linted.error().to_string();
  EXPECT_EQ(linted.value(), 3u);
}

TEST(PrometheusRender, EscapesLabelValues) {
  const std::string text = exposition([](MetricSink& sink) {
    sink.value("", 1.0, {"esc_gauge", MetricType::kGauge, "h"},
               {{"k", "a\"b\\c\nd"}});
  });
  EXPECT_NE(text.find("k=\"a\\\"b\\\\c\\nd\""), std::string::npos) << text;
  EXPECT_TRUE(validate_prometheus_text(text).ok());
}

}  // namespace
}  // namespace gpumine
