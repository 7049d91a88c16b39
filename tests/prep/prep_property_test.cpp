// Property-based tests for the preprocessing layer: randomized CSV
// round-trips, binning balance invariants, and encode/decode coverage.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "oracle/bins.hpp"
#include "prep/binning.hpp"
#include "prep/csv.hpp"
#include "prep/encoder.hpp"
#include "prep/table.hpp"
#include "trace/rng.hpp"

namespace gpumine::prep {
namespace {

// Random table with mixed column types, missing cells and awkward labels
// (commas, quotes, newlines) to stress the CSV writer/reader pair.
Table random_table(std::uint64_t seed, std::size_t rows) {
  trace::Rng rng(seed);
  Table t;
  auto& num_a = t.add_numeric("plain");
  auto& num_b = t.add_numeric("negative and tiny");
  auto& cat_a = t.add_categorical("labels");
  auto& cat_b = t.add_categorical("awkward");
  const std::vector<std::string> awkward = {
      "comma, inside", "quote \" inside", "new\nline", "tab\tinside",
      "plain"};
  for (std::size_t r = 0; r < rows; ++r) {
    if (rng.bernoulli(0.1)) {
      num_a.push_missing();
    } else {
      num_a.push(std::floor(rng.uniform(-1000.0, 1000.0) * 16.0) / 16.0);
    }
    if (rng.bernoulli(0.1)) {
      num_b.push_missing();
    } else {
      num_b.push(std::floor(rng.uniform(-1.0, 1.0) * 1024.0) / 1024.0);
    }
    if (rng.bernoulli(0.1)) {
      cat_a.push_missing();
    } else {
      cat_a.push("v" + std::to_string(rng.uniform_int(0, 9)));
    }
    if (rng.bernoulli(0.1)) {
      cat_b.push_missing();
    } else {
      cat_b.push(awkward[rng.uniform_int(0, awkward.size() - 1)]);
    }
  }
  return t;
}

class CsvRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsvRoundTrip, WriterAndReaderAreInverse) {
  const Table original = random_table(GetParam(), 200);
  std::ostringstream buffer;
  write_csv(original, buffer);
  std::istringstream input(buffer.str());
  auto parsed = read_csv(input);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const Table& back = parsed.value();

  ASSERT_EQ(back.num_rows(), original.num_rows());
  ASSERT_EQ(back.num_columns(), original.num_columns());
  for (std::size_t c = 0; c < original.num_columns(); ++c) {
    const std::string& name = original.column_name(c);
    ASSERT_TRUE(back.has_column(name));
    ASSERT_EQ(back.is_numeric(name), original.is_numeric(name)) << name;
    for (std::size_t r = 0; r < original.num_rows(); ++r) {
      if (original.is_numeric(name)) {
        const auto& a = original.numeric(name);
        const auto& b = back.numeric(name);
        ASSERT_EQ(a.is_missing(r), b.is_missing(r)) << name << " row " << r;
        if (!a.is_missing(r)) {
          // Values were quantized to dyadic fractions, so the default
          // 6-significant-digit CSV format is lossy only beyond 1e-3
          // relative — accept that bound.
          ASSERT_NEAR(b.values[r], a.values[r],
                      1e-3 * std::max(1.0, std::abs(a.values[r])));
        }
      } else {
        const auto& a = original.categorical(name);
        const auto& b = back.categorical(name);
        ASSERT_EQ(a.is_missing(r), b.is_missing(r)) << name << " row " << r;
        if (!a.is_missing(r)) {
          ASSERT_EQ(b.label(r), a.label(r));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

class BinningBalance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BinningBalance, EqualFrequencyBinsAreBalancedOnContinuousData) {
  trace::Rng rng(GetParam());
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(rng.lognormal(2.0, 1.5));  // long tail, all distinct
  }
  BinningParams params;
  params.zero_mass_threshold = 2.0;
  params.spike_mass_threshold = 2.0;
  const BinSpec spec = fit_bins(values, params);
  ASSERT_EQ(spec.labels.size(), 4u);
  std::unordered_map<std::string, int> counts;
  for (double v : values) counts[*label_for(spec, v)]++;
  for (const auto& [label, count] : counts) {
    EXPECT_NEAR(count, 250, 30) << label;
  }
}

TEST_P(BinningBalance, EveryValueGetsExactlyOneLabel) {
  trace::Rng rng(GetParam() + 100);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    // Mixture with atoms at 0 and 600 plus continuous mass.
    const double u = rng.uniform();
    values.push_back(u < 0.3 ? 0.0 : (u < 0.6 ? 600.0 : rng.uniform(1, 500)));
  }
  BinningParams params;  // defaults enable zero + spike bins
  const BinSpec spec = fit_bins(values, params);
  for (double v : values) {
    const auto label = label_for(spec, v);
    ASSERT_TRUE(label.has_value());
    EXPECT_FALSE(label->empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinningBalance,
                         ::testing::Values(11u, 12u, 13u));

TEST(EncoderProperty, EveryNonMissingCellBecomesExactlyOneItem) {
  const Table t = random_table(77, 150);
  EncoderParams params;
  params.dominance_threshold = 1.1;  // keep everything

  // Bin numerics first (encoder requires categorical input).
  Table binned = t;
  BinningParams bins;
  bins.zero_mass_threshold = 2.0;
  bins.spike_mass_threshold = 2.0;
  bin_column(binned, "plain", bins);
  bin_column(binned, "negative and tiny", bins);

  const auto encoded = encode(binned, params);
  ASSERT_EQ(encoded.db.size(), binned.num_rows());
  for (std::size_t r = 0; r < binned.num_rows(); ++r) {
    std::size_t expected = 0;
    for (std::size_t c = 0; c < binned.num_columns(); ++c) {
      const auto& col = binned.categorical(binned.column_name(c));
      if (!col.is_missing(r)) ++expected;
    }
    EXPECT_EQ(encoded.db[r].size(), expected) << "row " << r;
  }
}

}  // namespace
}  // namespace gpumine::prep
