// Tests for the benchmark's own code: sample statistics, the tail rule,
// the seeded request mix, failure accounting and span coverage.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "mix.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perf_e2e {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

// Expected values from Python: statistics.quantiles(values, n=4).
TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  const Quartiles ten = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);
  const Quartiles two = quartiles({2.0, 1.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  const Quartiles mixed = quartiles({5.0, 1.0, 9.0, 3.0, 7.0});
  EXPECT_DOUBLE_EQ(mixed.q1, 2.0);
  EXPECT_DOUBLE_EQ(mixed.q3, 8.0);
}

// Expected values from numpy.percentile (linear interpolation).
TEST(Stats, Percentile) {
  EXPECT_DOUBLE_EQ(percentile(one_to(5), 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(one_to(100), 0.99), 99.01);
  EXPECT_DOUBLE_EQ(percentile(one_to(4), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(one_to(4), 1.0), 4.0);
  EXPECT_THROW((void)percentile(one_to(4), 1.5), std::invalid_argument);
}

TEST(TailRule, RefusesP99WithFewerThanTenSamplesBeyond) {
  // p99 of 1..900 is 891.01: only 892..900 (nine samples) lie beyond it.
  EXPECT_THROW((void)summarize_tail(one_to(900), 0.99, "x"), UnsupportedTail);
  const Timing timing = summarize_tail(one_to(1000), 0.99, "x");
  EXPECT_EQ(timing.samples, 1000u);
  EXPECT_EQ(timing.beyond, 10u);
  EXPECT_DOUBLE_EQ(timing.tail, 990.01);
  EXPECT_DOUBLE_EQ(timing.median, 500.5);
}

TEST(TailRule, TiesAboveTheTailDoNotCount) {
  // 1,000 samples, but the top 20 are tied at the p99 value: nothing lies
  // strictly beyond it.
  std::vector<double> values = one_to(980);
  values.insert(values.end(), 20, 5000.0);
  EXPECT_THROW((void)summarize_tail(values, 0.99, "x"), UnsupportedTail);
}

TEST(Failures, TallyCountsEveryOutcomeAgainstAttempts) {
  Tally a;
  a.record(Outcome::kOk);
  a.record(Outcome::kError);
  a.record(Outcome::kStatus);
  a.record(Outcome::kMismatch);
  EXPECT_EQ(a.attempted, 4u);
  EXPECT_EQ(a.failed, 3u);
  EXPECT_EQ(a.mismatched, 1u);
  Tally b;
  b.record(Outcome::kOk);
  b.merge(a);
  EXPECT_EQ(b.attempted, 5u);
  EXPECT_EQ(b.failed, 3u);
  EXPECT_EQ(b.mismatched, 1u);
}

TEST(Failures, FailedRequestsMissEveryLimit) {
  std::vector<double> values = one_to(995);
  values.insert(values.end(), 5, kMissed);
  const Timing timing = summarize_tail(values, 0.99, "x");
  EXPECT_GT(timing.tail, 985.0);   // the failures pushed the tail up
  EXPECT_EQ(count_above(values, 995.0), 5u);
  EXPECT_DOUBLE_EQ(timing.median, 500.5);

  // More than 1% failed: p99 is missed, and no number is reported.
  values = one_to(980);
  values.insert(values.end(), 20, kMissed);
  EXPECT_THROW((void)summarize_tail(values, 0.99, "x"), UnsupportedTail);
}

std::vector<std::string> catalog() {
  std::vector<std::string> items;
  for (int i = 0; i < 40; ++i) {
    items.push_back("Item = Bin" + std::to_string(i));
  }
  items.push_back("SM Util = 0%");
  items.push_back("Odd, name");  // never used in SUPPORT lists
  return items;
}

const std::vector<std::vector<std::string>> kItemsets = {
    {"Item = Bin1"}, {"Item = Bin2", "SM Util = 0%"}, {"Odd, name"}};

TEST(Mix, SameSeedSameMix) {
  const Mix a = make_mix(catalog(), kItemsets, 7, 4096);
  const Mix b = make_mix(catalog(), kItemsets, 7, 4096);
  ASSERT_EQ(a.requests.size(), 4096u);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].line, b.requests[i].line);
    EXPECT_EQ(a.requests[i].target, b.requests[i].target);
    EXPECT_EQ(a.requests[i].answer, b.requests[i].answer);
  }
  EXPECT_EQ(a.targets, b.targets);

  const Mix other = make_mix(catalog(), kItemsets, 8, 4096);
  std::size_t differ = 0;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    differ += a.requests[i].line != other.requests[i].line ? 1 : 0;
  }
  EXPECT_GT(differ, 1000u);
}

TEST(Mix, CatalogOrderDoesNotChangeTheMix) {
  std::vector<std::string> reversed = catalog();
  std::reverse(reversed.begin(), reversed.end());
  const Mix a = make_mix(catalog(), kItemsets, 3, 1024);
  const Mix b = make_mix(reversed, kItemsets, 3, 1024);
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].line, b.requests[i].line);
  }
}

TEST(Mix, SharesAndZipfHead) {
  const std::size_t n = 50000;
  const Mix mix = make_mix(catalog(), kItemsets, 11, n);
  std::size_t queries = 0;
  std::size_t frequent_sets = 0;
  std::map<std::string, std::size_t> per_keyword;
  for (const MixRequest& r : mix.requests) {
    ASSERT_LT(r.answer, mix.targets.size());
    EXPECT_EQ(mix.targets[r.answer], r.target);
    if (r.query) {
      ++queries;
      ++per_keyword[r.line];
      EXPECT_EQ(r.target.rfind("/query?keyword=", 0), 0u);
    } else {
      EXPECT_EQ(r.line.rfind("SUPPORT ", 0), 0u);
      EXPECT_EQ(r.line.find("Odd"), std::string::npos);
      if (r.line == "SUPPORT Item = Bin1" ||
          r.line == "SUPPORT Item = Bin2,SM Util = 0%") {
        ++frequent_sets;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(queries) / n, 0.9, 0.01);
  EXPECT_NEAR(static_cast<double>(frequent_sets) / n, 0.05, 0.01);
  // Zipf(1) over 42 keywords: the most popular gets 1/H(42) of queries.
  double harmonic = 0.0;
  for (int r = 1; r <= 42; ++r) harmonic += 1.0 / r;
  std::size_t top = 0;
  for (const auto& [line, count] : per_keyword) top = std::max(top, count);
  EXPECT_NEAR(static_cast<double>(top) / static_cast<double>(queries),
              1.0 / harmonic, 0.01);
}

TEST(Mix, EncodesForBothProtocols) {
  EXPECT_EQ(percent_encode("SM Util = 0%"), "SM%20Util%20%3D%200%25");
  EXPECT_EQ(percent_encode("a,b"), "a%2Cb");
}

TEST(Spans, SelfTimeAndPhaseCoverage) {
  // Thread 1: phase [0, 100) with layers [0, 50) and [60, 90); the first
  // layer holds a program span [10, 30). Thread 2 overlaps in time but is
  // never a child of thread 1's spans.
  const std::vector<gpumine::TraceEvent> events = {
      {"phase.x", 0, 100, 1, 0}, {"layer.a", 0, 50, 1, 1},
      {"inner", 10, 20, 1, 2},   {"layer.b", 60, 30, 1, 1},
      {"phase.x", 0, 100, 2, 0}, {"layer.a", 0, 95, 2, 1},
  };
  const SpanReport report = analyze_spans(events);
  EXPECT_DOUBLE_EQ(report.min_coverage_pct.at("phase.x"), 80.0);
  const SpanTimes& a = report.by_name.at("layer.a");
  ASSERT_EQ(a.duration_ms.size(), 2u);
  EXPECT_DOUBLE_EQ(a.self_ms[0] + a.self_ms[1], (30.0 + 95.0) / 1e6);
  EXPECT_EQ(report.min_coverage_pct.count("layer.a"), 0u);
}

}  // namespace
}  // namespace perf_e2e
