#include "core/fpgrowth.hpp"

#include <gtest/gtest.h>

#include "core/support_index.hpp"
#include "mining_test_util.hpp"
#include "oracle/itemsets.hpp"

namespace gpumine::core {
namespace {

using testutil::brute_force;
using testutil::expect_same;
using testutil::make_db;

TEST(FpGrowth, MatchesOracleOnHanExample) {
  // The FP-Growth paper's running example (items renamed to 0..5).
  const auto db = make_db({{0, 1, 2, 3},
                           {1, 2, 4},
                           {1, 4},
                           {0, 1, 4},
                           {0, 5},
                           {1, 2, 3, 5}});
  MiningParams params;
  params.min_support = 0.5;  // count >= 3
  const auto result = mine_fpgrowth(db, params);
  expect_same(result.itemsets, brute_force(db, params));
}

TEST(FpGrowth, SinglePathDatabase) {
  // All transactions share one prefix path -> exercises the single-path
  // subset-enumeration shortcut.
  const auto db = make_db({{0, 1, 2, 3}, {0, 1, 2}, {0, 1}, {0}});
  MiningParams params;
  params.min_support = 0.25;  // count >= 1
  const auto result = mine_fpgrowth(db, params);
  expect_same(result.itemsets, brute_force(db, params));
}

TEST(FpGrowth, IdenticalTransactions) {
  const auto db = make_db({{1, 3, 5}, {1, 3, 5}, {1, 3, 5}, {1, 3, 5}});
  MiningParams params;
  params.min_support = 1.0;
  const auto result = mine_fpgrowth(db, params);
  EXPECT_EQ(result.itemsets.size(), 7u);  // all non-empty subsets
  for (const auto& fi : result.itemsets) {
    EXPECT_EQ(fi.count, 4u);
  }
}

TEST(FpGrowth, MaxLengthOne) {
  const auto db = make_db({{0, 1, 2}, {0, 1}, {0}});
  MiningParams params;
  params.min_support = 0.3;
  params.max_length = 1;
  const auto result = mine_fpgrowth(db, params);
  for (const auto& fi : result.itemsets) {
    EXPECT_EQ(fi.items.size(), 1u);
  }
  EXPECT_EQ(result.itemsets.size(), 3u);
}

TEST(FpGrowth, MaxLengthBoundsDepth) {
  const auto db = testutil::random_db(/*seed=*/7, /*num_txns=*/60,
                                      /*num_items=*/10);
  for (std::size_t max_len : {1u, 2u, 3u, 4u}) {
    MiningParams params;
    params.min_support = 0.1;
    params.max_length = max_len;
    const auto result = mine_fpgrowth(db, params);
    expect_same(result.itemsets, brute_force(db, params));
  }
}

TEST(FpGrowth, EmptyDatabaseAndEmptyTransactions) {
  TransactionDb db;
  EXPECT_TRUE(mine_fpgrowth(db, MiningParams{}).itemsets.empty());
  db.add({});
  db.add({});
  const auto result = mine_fpgrowth(db, MiningParams{});
  EXPECT_TRUE(result.itemsets.empty());
  EXPECT_EQ(result.db_size, 2u);
}

TEST(FpGrowth, ParallelMatchesSequential) {
  const auto db = testutil::random_db(/*seed=*/21, /*num_txns=*/300,
                                      /*num_items=*/14);
  MiningParams seq;
  seq.min_support = 0.08;
  seq.num_threads = 1;
  MiningParams par = seq;
  par.num_threads = 4;
  const auto a = mine_fpgrowth(db, seq);
  const auto b = mine_fpgrowth(db, par);
  expect_same(a.itemsets, b.itemsets);
}

TEST(FpGrowth, SupportMapCoversAllSubsets) {
  // Anti-monotonicity: every subset of a frequent itemset is frequent,
  // so the support map must contain all of them.
  const auto db = testutil::random_db(/*seed=*/3, /*num_txns=*/120,
                                      /*num_items=*/10);
  MiningParams params;
  params.min_support = 0.1;
  const auto result = mine_fpgrowth(db, params);
  const SupportIndex index(result);
  for (const auto& fi : result.itemsets) {
    const std::size_t k = fi.items.size();
    for (std::uint64_t mask = 1; mask < (1ull << k); ++mask) {
      Itemset sub;
      for (std::size_t b = 0; b < k; ++b) {
        if ((mask >> b) & 1) sub.push_back(fi.items[b]);
      }
      EXPECT_TRUE(index.find(sub).has_value())
          << debug_string(sub) << " missing, subset of "
          << debug_string(fi.items);
    }
  }
}

}  // namespace
}  // namespace gpumine::core
