#include "analysis/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gpumine::analysis {
namespace {

TEST(BoxStats, FiveNumberSummary) {
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(i);
  const BoxStats b = box_stats(v);
  EXPECT_DOUBLE_EQ(b.min, 0.0);
  EXPECT_DOUBLE_EQ(b.q1, 25.0);
  EXPECT_DOUBLE_EQ(b.median, 50.0);
  EXPECT_DOUBLE_EQ(b.q3, 75.0);
  EXPECT_DOUBLE_EQ(b.max, 100.0);
  EXPECT_EQ(b.count, 101u);
}

TEST(CdfAt, CountsInclusive) {
  const std::vector<double> v{1, 2, 2, 3};
  EXPECT_DOUBLE_EQ(cdf_at(v, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf_at(v, 2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf_at(v, 10.0), 1.0);
}

TEST(CdfValidation, Errors) {
  EXPECT_THROW((void)cdf_at(std::vector<double>{}, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace gpumine::analysis
