#include "core/miner.hpp"

#include <gtest/gtest.h>

namespace gpumine::core {
namespace {

TEST(Miner, AnalyzeKeywordSplitsCauseAndCharacteristic) {
  // Item 5 is the keyword; items 0 and 5 co-occur strongly.
  TransactionDb db;
  for (int i = 0; i < 40; ++i) db.add({0, 5});
  for (int i = 0; i < 30; ++i) db.add({1});
  for (int i = 0; i < 30; ++i) db.add({2});
  MiningParams mp;
  mp.min_support = 0.1;
  const auto mined = mine_frequent(db, mp);
  const auto analysis = analyze_keyword(mined, 5, RuleParams{}, PruneParams{});
  EXPECT_EQ(analysis.keyword, 5u);
  // {0} => {5} is cause, {5} => {0} is characteristic; both lift 2.5.
  ASSERT_EQ(analysis.cause.size(), 1u);
  ASSERT_EQ(analysis.characteristic.size(), 1u);
  EXPECT_EQ(analysis.cause[0].antecedent, Itemset{0});
  EXPECT_EQ(analysis.characteristic[0].antecedent, Itemset{5});
  EXPECT_NEAR(analysis.cause[0].lift, 2.5, 1e-9);
}

TEST(Miner, AnalyzeKeywordWithNoRules) {
  TransactionDb db;
  for (int i = 0; i < 10; ++i) db.add({0});
  const auto mined = mine_frequent(db, MiningParams{});
  const auto analysis = analyze_keyword(mined, 0, RuleParams{}, PruneParams{});
  EXPECT_TRUE(analysis.cause.empty());
  EXPECT_TRUE(analysis.characteristic.empty());
  EXPECT_EQ(analysis.prune_stats.input, 0u);
}

}  // namespace
}  // namespace gpumine::core
