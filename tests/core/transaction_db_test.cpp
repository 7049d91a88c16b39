#include "core/transaction_db.hpp"

#include <gtest/gtest.h>

#include "oracle/itemsets.hpp"

namespace gpumine::core {
namespace {

TEST(TransactionDb, AddCanonicalizesTransactions) {
  TransactionDb db;
  db.add({3, 1, 3, 2});
  ASSERT_EQ(db.size(), 1u);
  const auto txn = db[0];
  EXPECT_EQ(Itemset(txn.begin(), txn.end()), (Itemset{1, 2, 3}));
}

TEST(TransactionDb, EmptyTransactionsAllowed) {
  TransactionDb db;
  db.add({});
  db.add({1});
  EXPECT_EQ(db.size(), 2u);
  EXPECT_TRUE(db[0].empty());
  EXPECT_EQ(support_count(db, Itemset{}), 2u);  // empty set in everything
  EXPECT_EQ(support_count(db, Itemset{1}), 1u);
}

TEST(TransactionDb, ItemIdBoundTracksMaximum) {
  TransactionDb db;
  EXPECT_EQ(db.item_id_bound(), 0u);
  db.add({4});
  EXPECT_EQ(db.item_id_bound(), 5u);
  db.add({2});
  EXPECT_EQ(db.item_id_bound(), 5u);
  db.add({9, 1});
  EXPECT_EQ(db.item_id_bound(), 10u);
}

TEST(TransactionDb, SupportCountScans) {
  TransactionDb db;
  db.add({0, 1, 2});
  db.add({0, 2});
  db.add({1, 2});
  db.add({0, 1, 2, 3});
  EXPECT_EQ(support_count(db, Itemset{0}), 3u);
  EXPECT_EQ(support_count(db, Itemset{2}), 4u);
  EXPECT_EQ(support_count(db, Itemset{0, 1}), 2u);
  EXPECT_EQ(support_count(db, Itemset{0, 1, 2, 3}), 1u);
  EXPECT_EQ(support_count(db, Itemset{3, 4}), 0u);
}

TEST(TransactionDb, ItemCounts) {
  TransactionDb db;
  db.add({0, 1});
  db.add({1, 2});
  db.add({1});
  const auto counts = db.item_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 3u);
  EXPECT_EQ(counts[2], 1u);
}

TEST(TransactionDb, TotalItemsCountsStoredOccurrences) {
  TransactionDb db;
  db.add({0, 1, 1});  // dedupes to 2 items
  db.add({2});
  EXPECT_EQ(db.total_items(), 3u);
}

// Support-inflation guard: repeated items within one transaction must not
// raise per-item counts (FP-tree insertion weights) or subset supports
// above the number of containing transactions.
TEST(TransactionDb, DuplicateItemsCannotInflateSupport) {
  TransactionDb db;
  db.add({5, 5, 5, 2});
  db.add({2, 2});
  db.add({5});

  const auto counts = db.item_counts();
  EXPECT_EQ(counts[5], 2u);  // not 4
  EXPECT_EQ(counts[2], 2u);  // not 3
  EXPECT_EQ(support_count(db, Itemset{5}), 2u);
  EXPECT_EQ(support_count(db, Itemset{2, 5}), 1u);

  // Every stored transaction is strictly increasing — the invariant the
  // FP-tree's rank-ascending insert depends on.
  for (std::size_t t = 0; t < db.size(); ++t) {
    EXPECT_TRUE(is_canonical(db[t])) << "transaction " << t;
  }
}

}  // namespace
}  // namespace gpumine::core
