// SupportIndex is the one read-only support lookup, built once and
// shared by every rule-stage call site. Its counts must agree with the
// database oracle (TransactionDb::support_count) on every mined
// itemset, and its contingency builder must hand measures.hpp exactly
// the counts the database would.
#include "core/support_index.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/fpgrowth.hpp"
#include "core/measures.hpp"
#include "core/transaction_db.hpp"

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
    EXPECT_EQ(index.count(fi.items), db.support_count(fi.items));
    EXPECT_DOUBLE_EQ(index.support(fi.items),
                     static_cast<double>(fi.count) /
                         static_cast<double>(db.size()));
  }
}

TEST(SupportIndex, MissesBelowTheSupportFloor) {
  // min_support 0.5 of 8 transactions keeps counts >= 4: {0,2} (count 3)
  // is below the floor, so find() misses and count() throws.
  const auto mined = mine(toy_db(), 0.5);
  const SupportIndex index(mined);
  const Itemset infrequent = {0, 2};
  EXPECT_FALSE(index.find(infrequent).has_value());
  EXPECT_THROW((void)index.count(infrequent), std::logic_error);

  const Itemset frequent = {0, 1};
  EXPECT_EQ(index.count(frequent), 4u);
}

TEST(SupportIndex, ContingencyMatchesOracleAndFeedsMeasures) {
  const auto db = toy_db();
  const auto mined = mine(db, 0.25);
  const SupportIndex index(mined);

  const Itemset x = {0};
  const Itemset y = {1};
  const ContingencyCounts c = index.contingency(x, y);
  EXPECT_EQ(c.antecedent, db.support_count(x));
  EXPECT_EQ(c.consequent, db.support_count(y));
  EXPECT_EQ(c.joint, db.support_count(Itemset{0, 1}));
  EXPECT_EQ(c.total, db.size());
  EXPECT_NO_THROW(c.validate());

  const ExtendedMeasures m = extended_measures(c);
  // jaccard = sigma(XY) / (sigma(X) + sigma(Y) - sigma(XY)) = 4 / 7.
  EXPECT_DOUBLE_EQ(m.jaccard, 4.0 / 7.0);
  EXPECT_GT(m.cosine, 0.0);

  // Contingency requires disjoint sides.
  EXPECT_THROW((void)index.contingency(x, x), std::invalid_argument);
}

TEST(SupportIndex, DefaultConstructedIsEmpty) {
  const SupportIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.db_size(), 0u);
  const Itemset any = {0};
  EXPECT_FALSE(index.find(any).has_value());
  EXPECT_THROW((void)index.count(any), std::logic_error);
  EXPECT_EQ(index.support(any), 0.0);
}

}  // namespace
}  // namespace gpumine::core
