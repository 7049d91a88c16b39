#include "oracle/apriori.hpp"

#include <gtest/gtest.h>

#include "core/support_index.hpp"
#include "mining_test_util.hpp"

namespace gpumine::core {
namespace {

using testutil::brute_force;
using testutil::expect_same;
using testutil::make_db;

// Classic textbook example (Han et al.): items 0..4, min support 3/5.
TransactionDb textbook_db() {
  return make_db({{0, 1, 4}, {1, 3}, {1, 2}, {0, 1, 3}, {0, 2}});
}

TEST(Apriori, TextbookExample) {
  const auto db = textbook_db();
  MiningParams params;
  params.min_support = 0.6;  // count >= 3
  const auto result = mine_apriori(db, params);
  // Frequent: {0}:3 {1}:4 {2}:2? no (2) — check: item2 in txns 2,4 -> 2 < 3.
  // {0,1}:2 < 3. So frequent = {0},{1},{3}? item3 in txns 1,3 -> 2 < 3.
  // Only {0} and {1}.
  ASSERT_EQ(result.itemsets.size(), 2u);
  EXPECT_EQ(result.itemsets[0].items, Itemset{0});
  EXPECT_EQ(result.itemsets[0].count, 3u);
  EXPECT_EQ(result.itemsets[1].items, Itemset{1});
  EXPECT_EQ(result.itemsets[1].count, 4u);
}

TEST(Apriori, LowerThresholdFindsPairs) {
  const auto db = textbook_db();
  MiningParams params;
  params.min_support = 0.4;  // count >= 2
  const auto result = mine_apriori(db, params);
  expect_same(result.itemsets, brute_force(db, params));
  // Spot-check one pair.
  EXPECT_EQ(SupportIndex(result).find(Itemset{0, 1}), 2u);
}

TEST(Apriori, MaxLengthCutsDeeperLevels) {
  const auto db = make_db({{0, 1, 2}, {0, 1, 2}, {0, 1, 2}});
  MiningParams params;
  params.min_support = 0.5;
  params.max_length = 2;
  const auto result = mine_apriori(db, params);
  for (const auto& fi : result.itemsets) {
    EXPECT_LE(fi.items.size(), 2u);
  }
  // 3 singletons + 3 pairs.
  EXPECT_EQ(result.itemsets.size(), 6u);
}

TEST(Apriori, EmptyDatabase) {
  TransactionDb db;
  const auto result = mine_apriori(db, MiningParams{});
  EXPECT_TRUE(result.itemsets.empty());
  EXPECT_EQ(result.db_size, 0u);
}

TEST(Apriori, MinSupportOneKeepsEverything) {
  const auto db = make_db({{0, 1}, {2}});
  MiningParams params;
  params.min_support = 1e-9;  // min_count clamps to 1
  const auto result = mine_apriori(db, params);
  expect_same(result.itemsets, brute_force(db, params));
}

TEST(Apriori, FullSupportItemset) {
  const auto db = make_db({{0, 1}, {0, 1}, {0, 1}});
  MiningParams params;
  params.min_support = 1.0;
  const auto result = mine_apriori(db, params);
  ASSERT_EQ(result.itemsets.size(), 3u);  // {0} {1} {0,1}
  EXPECT_EQ(result.itemsets.back().items, (Itemset{0, 1}));
  EXPECT_EQ(result.itemsets.back().count, 3u);
}

TEST(Apriori, InvalidParamsThrow) {
  const auto db = make_db({{0}});
  MiningParams bad;
  bad.min_support = 0.0;
  EXPECT_THROW((void)mine_apriori(db, bad), std::invalid_argument);
  bad.min_support = 1.5;
  EXPECT_THROW((void)mine_apriori(db, bad), std::invalid_argument);
  bad.min_support = 0.5;
  bad.max_length = 0;
  EXPECT_THROW((void)mine_apriori(db, bad), std::invalid_argument);
}

TEST(MiningParams, MinCountRounding) {
  MiningParams params;
  params.min_support = 0.05;
  EXPECT_EQ(params.min_count(100), 5u);
  EXPECT_EQ(params.min_count(99), 5u);   // ceil(4.95)
  EXPECT_EQ(params.min_count(101), 6u);  // ceil(5.05)
  params.min_support = 1.0;
  EXPECT_EQ(params.min_count(7), 7u);
  params.min_support = 1e-12;
  EXPECT_EQ(params.min_count(10), 1u);  // at least one transaction
}

}  // namespace
}  // namespace gpumine::core
