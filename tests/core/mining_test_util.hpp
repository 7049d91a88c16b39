// Shared helpers for the frequent-itemset mining tests: tiny-database
// construction, a brute-force oracle, and result comparison.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "core/frequent.hpp"
#include "core/transaction_db.hpp"
#include "oracle/itemsets.hpp"
#include "trace/rng.hpp"

namespace gpumine::core::testutil {

inline TransactionDb make_db(
    std::initializer_list<std::initializer_list<ItemId>> txns) {
  TransactionDb db;
  for (const auto& t : txns) db.add(Itemset(t));
  return db;
}

/// Exhaustive oracle: enumerates every subset of every transaction up to
/// max_length, counts supports with the scan oracle, and keeps the
/// frequent ones. Exponential — only for tiny databases.
inline std::vector<FrequentItemset> brute_force(const TransactionDb& db,
                                                const MiningParams& params) {
  const std::uint64_t min_count = params.min_count(db.size());
  std::vector<Itemset> candidates;
  for (std::size_t t = 0; t < db.size(); ++t) {
    const auto txn = db[t];
    const std::size_t n = txn.size();
    for (std::uint64_t mask = 1; mask < (1ull << n); ++mask) {
      if (static_cast<std::size_t>(std::popcount(mask)) > params.max_length) {
        continue;
      }
      Itemset s;
      for (std::size_t b = 0; b < n; ++b) {
        if ((mask >> b) & 1) s.push_back(txn[b]);
      }
      candidates.push_back(std::move(s));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<FrequentItemset> out;
  for (auto& c : candidates) {
    const std::uint64_t count = support_count(db, c);
    if (count >= min_count) out.push_back({std::move(c), count});
  }
  sort_canonical(out);
  return out;
}

inline void expect_same(const std::vector<FrequentItemset>& actual,
                        const std::vector<FrequentItemset>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].items, expected[i].items) << "index " << i;
    EXPECT_EQ(actual[i].count, expected[i].count)
        << "itemset " << debug_string(actual[i].items);
  }
}

/// Random database with `num_txns` transactions over `num_items` items;
/// each item appears independently with per-item probability drawn once
/// per item (mimicking skewed real data).
inline TransactionDb random_db(std::uint64_t seed, std::size_t num_txns,
                               ItemId num_items) {
  trace::Rng rng(seed);
  std::vector<double> p(num_items);
  for (auto& v : p) v = rng.uniform(0.05, 0.7);
  TransactionDb db;
  for (std::size_t t = 0; t < num_txns; ++t) {
    Itemset txn;
    for (ItemId i = 0; i < num_items; ++i) {
      if (rng.bernoulli(p[i])) txn.push_back(i);
    }
    db.add(std::move(txn));
  }
  return db;
}

}  // namespace gpumine::core::testutil
