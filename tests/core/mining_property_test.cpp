// Property-based cross-validation of FP-Growth and the Apriori oracle.
//
// Over a parameterized sweep of random databases and thresholds:
//  * FP-Growth == Apriori == brute-force oracle (exact counts);
//  * anti-monotonicity: supersets never out-support subsets;
//  * thresholds are respected exactly at the boundary.
#include <gtest/gtest.h>

#include <tuple>

#include "core/fpgrowth.hpp"
#include "core/support_index.hpp"
#include "mining_test_util.hpp"
#include "oracle/apriori.hpp"
#include "oracle/itemsets.hpp"

namespace gpumine::core {
namespace {

using testutil::brute_force;
using testutil::expect_same;
using testutil::random_db;

// gtest prints a parameter it has no printer for as its bytes, and ctest
// names carry that dump. Every field is 8 bytes wide so the struct has no
// padding, whose bytes would differ from build to build.
struct SweepCase {
  std::uint64_t seed;
  std::size_t num_txns;
  std::size_t num_items;
  double min_support;
  std::size_t max_length;
};

TransactionDb sweep_db(const SweepCase& c) {
  return random_db(c.seed, c.num_txns, static_cast<ItemId>(c.num_items));
}

class MiningSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MiningSweep, AllAlgorithmsAgreeWithOracle) {
  const SweepCase& c = GetParam();
  const auto db = sweep_db(c);
  MiningParams params;
  params.min_support = c.min_support;
  params.max_length = c.max_length;

  const auto oracle = brute_force(db, params);
  expect_same(mine_fpgrowth(db, params).itemsets, oracle);
  expect_same(mine_apriori(db, params).itemsets, oracle);
}

TEST_P(MiningSweep, AntiMonotonicity) {
  const SweepCase& c = GetParam();
  const auto db = sweep_db(c);
  MiningParams params;
  params.min_support = c.min_support;
  params.max_length = c.max_length;
  const auto result = mine_fpgrowth(db, params);
  const SupportIndex index(result);
  for (const auto& fi : result.itemsets) {
    if (fi.items.size() < 2) continue;
    // Dropping any one item must not decrease support.
    for (std::size_t drop = 0; drop < fi.items.size(); ++drop) {
      Itemset sub = fi.items;
      sub.erase(sub.begin() + static_cast<std::ptrdiff_t>(drop));
      const auto count = index.find(sub);
      ASSERT_TRUE(count.has_value());
      EXPECT_GE(*count, fi.count);
    }
  }
}

TEST_P(MiningSweep, ThresholdIsExact) {
  const SweepCase& c = GetParam();
  const auto db = sweep_db(c);
  MiningParams params;
  params.min_support = c.min_support;
  params.max_length = c.max_length;
  const std::uint64_t min_count = params.min_count(db.size());
  const auto result = mine_fpgrowth(db, params);
  for (const auto& fi : result.itemsets) {
    EXPECT_GE(fi.count, min_count);
    EXPECT_LE(fi.items.size(), params.max_length);
    // Reported counts must equal the scan oracle's.
    EXPECT_EQ(fi.count, support_count(db, fi.items));
  }
  // Completeness at the boundary: every frequent single item is present.
  const auto counts = db.item_counts();
  const SupportIndex index(result);
  for (ItemId i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(index.find(Itemset{i}).has_value(), counts[i] >= min_count);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDatabases, MiningSweep,
    ::testing::Values(
        SweepCase{1, 50, 8, 0.10, 5}, SweepCase{2, 50, 8, 0.30, 5},
        SweepCase{3, 100, 10, 0.05, 4}, SweepCase{4, 100, 10, 0.20, 3},
        SweepCase{5, 200, 12, 0.15, 5}, SweepCase{6, 30, 6, 0.50, 5},
        SweepCase{7, 30, 6, 0.90, 5}, SweepCase{8, 150, 9, 0.02, 2},
        SweepCase{9, 80, 11, 0.25, 4}, SweepCase{10, 60, 7, 0.12, 5},
        SweepCase{11, 250, 8, 0.08, 5}, SweepCase{12, 40, 14, 0.35, 3}),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      const SweepCase& c = param_info.param;
      return "seed" + std::to_string(c.seed) + "_n" +
             std::to_string(c.num_txns) + "_m" + std::to_string(c.num_items) +
             "_s" + std::to_string(static_cast<int>(c.min_support * 100)) +
             "_L" + std::to_string(c.max_length);
    });

}  // namespace
}  // namespace gpumine::core
