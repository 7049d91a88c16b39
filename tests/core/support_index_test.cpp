// SupportIndex is the one read-only support lookup, built once and
// shared by every rule-stage call site. Its counts must agree with the
// database oracle (support_count, a linear scan) on every mined itemset.
#include "core/support_index.hpp"

#include <gtest/gtest.h>

#include "core/fpgrowth.hpp"
#include "core/transaction_db.hpp"
#include "oracle/itemsets.hpp"

namespace gpumine::core {
namespace {

// Eight transactions over items 0..3 with known pair counts:
// sigma({0,1}) = 4, sigma({2,3}) = 4, sigma({0,3}) = 4, sigma({0,2}) = 3.
TransactionDb toy_db() {
  TransactionDb db;
  db.add({0, 1, 2});
  db.add({0, 1, 3});
  db.add({0, 2, 3});
  db.add({1, 2, 3});
  db.add({0, 1, 2, 3});
  db.add({0, 1});
  db.add({2, 3});
  db.add({0, 3});
  return db;
}

MiningResult mine(const TransactionDb& db, double min_support) {
  MiningParams params;
  params.min_support = min_support;
  params.max_length = 4;
  return mine_fpgrowth(db, params);
}

TEST(SupportIndex, MatchesDatabaseOracleOnEveryMinedItemset) {
  const auto db = toy_db();
  const auto mined = mine(db, 0.25);
  ASSERT_FALSE(mined.itemsets.empty());
  const SupportIndex index(mined);
  EXPECT_EQ(index.size(), mined.itemsets.size());
  EXPECT_EQ(index.db_size(), db.size());
  EXPECT_FALSE(index.empty());
  for (const auto& fi : mined.itemsets) {
    const auto found = index.find(fi.items);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, fi.count);
    EXPECT_EQ(*found, support_count(db, fi.items));
  }
}

TEST(SupportIndex, MissesBelowTheSupportFloor) {
  // min_support 0.5 of 8 transactions keeps counts >= 4: {0,2} (count 3)
  // is below the floor, so find() misses.
  const auto mined = mine(toy_db(), 0.5);
  const SupportIndex index(mined);
  const Itemset infrequent = {0, 2};
  EXPECT_FALSE(index.find(infrequent).has_value());

  const Itemset frequent = {0, 1};
  EXPECT_EQ(index.find(frequent).value_or(0), 4u);
}

TEST(SupportIndex, DefaultConstructedIsEmpty) {
  const SupportIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.db_size(), 0u);
  const Itemset any = {0};
  EXPECT_FALSE(index.find(any).has_value());
}

}  // namespace
}  // namespace gpumine::core
