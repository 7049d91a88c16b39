#include "prep/binning.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "oracle/bins.hpp"

namespace gpumine::prep {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

BinningParams plain() {
  BinningParams p;
  p.zero_mass_threshold = 2.0;   // disabled
  p.spike_mass_threshold = 2.0;  // disabled
  return p;
}

TEST(FitBins, EqualFrequencyQuartiles) {
  // Values 1..100: quartile edges at the 25/50/75 nearest-rank points.
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  const BinSpec spec = fit_bins(values, plain());
  ASSERT_EQ(spec.labels.size(), 4u);
  EXPECT_EQ(spec.labels[0], "Bin1");
  EXPECT_EQ(spec.labels[3], "Bin4");
  // Roughly a quarter of the data in each bin.
  std::array<int, 4> counts{};
  for (double v : values) {
    const auto label = label_for(spec, v);
    ASSERT_TRUE(label.has_value());
    counts[static_cast<std::size_t>((*label)[3] - '1')]++;
  }
  for (int c : counts) {
    EXPECT_GE(c, 20);
    EXPECT_LE(c, 30);
  }
}

TEST(FitBins, PaperIntervalConvention) {
  // Bin1 = [min, p25), Bin4 = [p75, max] (Sec. III-E).
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(i);
  const BinSpec spec = fit_bins(values, plain());
  EXPECT_EQ(label_for(spec, 0).value(), "Bin1");
  EXPECT_EQ(label_for(spec, 99).value(), "Bin4");
  // Values above the data maximum clamp into the last bin.
  EXPECT_EQ(label_for(spec, 1e9).value(), "Bin4");
  EXPECT_EQ(label_for(spec, -1e9).value(), "Bin1");
}

TEST(FitBins, NaNsAreSkippedAndUnlabeled) {
  const std::vector<double> values{1, 2, 3, 4, kNaN, kNaN};
  const BinSpec spec = fit_bins(values, plain());
  EXPECT_FALSE(label_for(spec, kNaN).has_value());
  EXPECT_TRUE(label_for(spec, 2).has_value());
}

TEST(FitBins, ConstantColumnCollapsesToOneBin) {
  const std::vector<double> values(50, 7.0);
  const BinSpec spec = fit_bins(values, plain());
  EXPECT_EQ(spec.labels.size(), 1u);
  EXPECT_EQ(label_for(spec, 7.0).value(), "Bin1");
}

TEST(FitBins, HeavyTiesMergeBins) {
  // 80% of mass at value 1 -> p25/p50/p75 all equal 1; duplicate edges
  // collapse instead of emitting empty bins.
  std::vector<double> values(80, 1.0);
  for (int i = 0; i < 20; ++i) values.push_back(10.0 + i);
  const BinSpec spec = fit_bins(values, plain());
  EXPECT_LE(spec.labels.size(), 2u);
  for (double v : values) {
    EXPECT_TRUE(label_for(spec, v).has_value());
  }
}

TEST(FitBins, ZeroBinCreatedAboveThreshold) {
  // 46% zeros, like PAI SM utilization (Fig. 4).
  std::vector<double> values(46, 0.0);
  for (int i = 0; i < 54; ++i) values.push_back(1.0 + i);
  BinningParams p = plain();
  p.zero_mass_threshold = 0.25;
  p.zero_label = "0%";
  const BinSpec spec = fit_bins(values, p);
  EXPECT_TRUE(spec.has_zero_bin);
  EXPECT_EQ(label_for(spec, 0.0).value(), "0%");
  EXPECT_NE(label_for(spec, 1.0).value(), "0%");
  // Quartiles were fit on the non-zero residue.
  EXPECT_EQ(spec.labels.size(), 4u);
}

TEST(FitBins, ZeroBinNotCreatedBelowThreshold) {
  std::vector<double> values(10, 0.0);
  for (int i = 0; i < 90; ++i) values.push_back(1.0 + i);
  BinningParams p = plain();
  p.zero_mass_threshold = 0.25;
  const BinSpec spec = fit_bins(values, p);
  EXPECT_FALSE(spec.has_zero_bin);
  EXPECT_EQ(label_for(spec, 0.0).value(), "Bin1");
}

TEST(FitBins, SpikeBinDetectsStandardRequest) {
  // ~50% of jobs request exactly 600 CPU cores (Sec. IV-B).
  std::vector<double> values(50, 600.0);
  for (int i = 0; i < 50; ++i) values.push_back(100.0 + i * 8);
  BinningParams p = plain();
  p.spike_mass_threshold = 0.40;
  const BinSpec spec = fit_bins(values, p);
  ASSERT_TRUE(spec.spike_value.has_value());
  EXPECT_EQ(*spec.spike_value, 600.0);
  EXPECT_EQ(label_for(spec, 600.0).value(), "Std");
  EXPECT_NE(label_for(spec, 100.0).value(), "Std");
}

TEST(FitBins, SpikeAndZeroBinCoexist) {
  std::vector<double> values(40, 0.0);
  for (int i = 0; i < 40; ++i) values.push_back(600.0);
  for (int i = 0; i < 20; ++i) values.push_back(50.0 + i);
  BinningParams p;
  p.zero_mass_threshold = 0.25;
  p.spike_mass_threshold = 0.30;
  const BinSpec spec = fit_bins(values, p);
  EXPECT_TRUE(spec.has_zero_bin);
  ASSERT_TRUE(spec.spike_value.has_value());
  EXPECT_EQ(*spec.spike_value, 600.0);
  EXPECT_EQ(label_for(spec, 0.0).value(), p.zero_label);
  EXPECT_EQ(label_for(spec, 600.0).value(), "Std");
  EXPECT_EQ(label_for(spec, 50.0).value(), "Bin1");  // residual minimum
}

TEST(FitBins, EqualWidthBaseline) {
  // Long-tailed data: equal width leaves upper bins nearly empty — the
  // failure mode the paper cites for rejecting it.
  std::vector<double> values;
  for (int i = 0; i < 99; ++i) values.push_back(i * 0.01);  // [0, 1)
  values.push_back(100.0);                                  // tail
  BinningParams p = plain();
  p.equal_width = true;
  const BinSpec spec = fit_bins(values, p);
  int in_last = 0;
  for (double v : values) {
    if (label_for(spec, v).value() == spec.labels.back()) ++in_last;
  }
  EXPECT_EQ(in_last, 1);  // only the tail point
}

TEST(FitBins, EmptyInput) {
  const BinSpec spec = fit_bins(std::vector<double>{}, plain());
  EXPECT_TRUE(spec.labels.empty());
  EXPECT_FALSE(label_for(spec, 1.0).has_value());
}

TEST(FitBins, AllSpecialValues) {
  // Everything is zero: zero bin consumes the whole column.
  const std::vector<double> values(10, 0.0);
  BinningParams p;
  p.zero_mass_threshold = 0.25;
  const BinSpec spec = fit_bins(values, p);
  EXPECT_TRUE(spec.has_zero_bin);
  EXPECT_TRUE(spec.labels.empty());
  EXPECT_EQ(label_for(spec, 0.0).value(), p.zero_label);
  EXPECT_FALSE(label_for(spec, 5.0).has_value());  // out-of-vocabulary
}

TEST(BinColumn, ReplacesNumericWithCategorical) {
  Table t;
  auto& col = t.add_numeric("Runtime");
  for (int i = 0; i < 40; ++i) col.push(i);
  col.push_missing();
  const BinSpec spec = bin_column(t, "Runtime", plain());
  EXPECT_EQ(spec.labels.size(), 4u);
  EXPECT_FALSE(t.is_numeric("Runtime"));
  const auto& binned = t.categorical("Runtime");
  EXPECT_EQ(binned.label(0), "Bin1");
  EXPECT_EQ(binned.label(39), "Bin4");
  EXPECT_TRUE(binned.is_missing(40));
}

TEST(BinningParams, Validation) {
  BinningParams bad;
  bad.num_bins = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = BinningParams{};
  bad.bin_prefix = "";
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(BinSpec, NumBinsCountsSpecials) {
  std::vector<double> values(40, 0.0);
  for (int i = 0; i < 60; ++i) values.push_back(1.0 + i);
  BinningParams p;
  p.zero_mass_threshold = 0.25;
  p.spike_mass_threshold = 2.0;
  const BinSpec spec = fit_bins(values, p);
  EXPECT_EQ(spec.num_bins(), spec.labels.size() + 1);
}

}  // namespace
}  // namespace gpumine::prep
