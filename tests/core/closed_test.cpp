#include "core/closed.hpp"

#include <gtest/gtest.h>

#include "core/fpgrowth.hpp"
#include "mining_test_util.hpp"
#include "oracle/itemsets.hpp"

namespace gpumine::core {
namespace {

using testutil::make_db;

TEST(Closed, KnownExample) {
  // {0,1} always co-occur; 2 appears alone too.
  const auto db = make_db({{0, 1, 2}, {0, 1, 2}, {0, 1}, {2}});
  MiningParams params;
  params.min_support = 0.25;
  const auto mined = mine_fpgrowth(db, params);
  const auto closed = closed_itemsets(mined);
  // {0} (supp 3) is not closed: {0,1} also has supp 3. Same for {1}.
  // Closed family: {0,1}:3, {2}:3, {0,1,2}:2.
  ASSERT_EQ(closed.size(), 3u);
  EXPECT_EQ(closed[0].items, Itemset{2});
  EXPECT_EQ(closed[1].items, (Itemset{0, 1}));
  EXPECT_EQ(closed[2].items, (Itemset{0, 1, 2}));
}

TEST(Maximal, KnownExample) {
  const auto db = make_db({{0, 1, 2}, {0, 1, 2}, {0, 1}, {2}});
  MiningParams params;
  params.min_support = 0.25;
  const auto mined = mine_fpgrowth(db, params);
  const auto maximal = maximal_itemsets(mined);
  ASSERT_EQ(maximal.size(), 1u);
  EXPECT_EQ(maximal[0].items, (Itemset{0, 1, 2}));
}

TEST(Closed, MaximalIsSubsetOfClosed) {
  const auto db = testutil::random_db(/*seed=*/13, /*num_txns=*/150,
                                      /*num_items=*/10);
  MiningParams params;
  params.min_support = 0.08;
  const auto mined = mine_fpgrowth(db, params);
  const auto closed = closed_itemsets(mined);
  const auto maximal = maximal_itemsets(mined);
  EXPECT_LE(maximal.size(), closed.size());
  EXPECT_LE(closed.size(), mined.itemsets.size());
  // Every maximal itemset is closed (a frequent superset with equal
  // support would in particular be a frequent superset).
  for (const auto& m : maximal) {
    EXPECT_TRUE(std::any_of(closed.begin(), closed.end(),
                            [&](const FrequentItemset& c) {
                              return c.items == m.items && c.count == m.count;
                            }))
        << debug_string(m.items);
  }
}

TEST(Closed, LosslessSupportReconstruction) {
  const auto db = testutil::random_db(/*seed=*/17, /*num_txns=*/120,
                                      /*num_items=*/9);
  MiningParams params;
  params.min_support = 0.1;
  params.max_length = 9;  // no truncation: closure always in the family
  const auto mined = mine_fpgrowth(db, params);
  const auto closed = closed_itemsets(mined);
  for (const auto& fi : mined.itemsets) {
    EXPECT_EQ(support_from_closed(closed, fi.items), fi.count)
        << debug_string(fi.items);
  }
}

TEST(Closed, InfrequentItemsetReconstructsToZeroOrLess) {
  const auto db = make_db({{0, 1}, {0, 1}, {2}});
  MiningParams params;
  params.min_support = 0.5;
  const auto mined = mine_fpgrowth(db, params);
  const auto closed = closed_itemsets(mined);
  // {0, 2} never co-occurs and is infrequent: no closed superset.
  EXPECT_EQ(support_from_closed(closed, Itemset{0, 2}), 0u);
}

TEST(Closed, EmptyMiningResult) {
  MiningResult empty;
  EXPECT_TRUE(closed_itemsets(empty).empty());
  EXPECT_TRUE(maximal_itemsets(empty).empty());
}

TEST(Closed, CompressionOnRedundantData) {
  // 20 identical transactions: 2^4 - 1 frequent itemsets but exactly one
  // closed (= maximal) itemset.
  TransactionDb db;
  for (int i = 0; i < 20; ++i) db.add({0, 1, 2, 3});
  MiningParams params;
  params.min_support = 0.5;
  const auto mined = mine_fpgrowth(db, params);
  EXPECT_EQ(mined.itemsets.size(), 15u);
  EXPECT_EQ(closed_itemsets(mined).size(), 1u);
  EXPECT_EQ(maximal_itemsets(mined).size(), 1u);
}

}  // namespace
}  // namespace gpumine::core
