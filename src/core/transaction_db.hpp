// TransactionDb: the mining database D = {t_1 ... t_m} (paper Sec. III-B).
//
// Each transaction is one job record, stored as a canonical itemset.
// Storage is a flat item array plus offsets (CSR layout) so a scan over
// the whole database is one contiguous sweep.
//
// Transactions carry an integer *weight* (multiplicity). One-hot encoded
// job tables collapse to a small set of distinct rows, so `dedup()` folds
// identical transactions into one weighted row; every support count then
// becomes a weighted sum and every support/confidence/lift denominator is
// `total_weight()` instead of `size()`, which keeps all mining results
// byte-identical to the expanded database. The weight vector is lazily
// materialized: a database that only ever saw weight-1 adds stores
// nothing extra.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/itemset.hpp"

namespace gpumine::core {

class TransactionDb {
 public:
  TransactionDb() = default;

  /// Appends one transaction with multiplicity `weight` (>= 1). The items
  /// are canonicalized (sorted, deduplicated); an empty transaction is
  /// allowed — it simply supports only the empty itemset.
  void add(Itemset transaction, std::uint64_t weight = 1);

  /// Number of stored (distinct, when deduplicated) transactions.
  [[nodiscard]] std::size_t size() const { return offsets_.size() - 1; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// |D|: the sum of all transaction weights — the support denominator.
  /// Equals size() for a database that never saw a weight above 1.
  [[nodiscard]] std::uint64_t total_weight() const {
    return weights_.empty() ? size() : total_weight_;
  }

  /// Multiplicity of the i-th transaction.
  [[nodiscard]] std::uint64_t weight(std::size_t i) const {
    return weights_.empty() ? 1 : weights_[i];
  }

  /// True once any transaction carries a weight above 1.
  [[nodiscard]] bool weighted() const { return !weights_.empty(); }

  /// The i-th transaction as a view into the flat storage.
  [[nodiscard]] std::span<const ItemId> operator[](std::size_t i) const {
    return {items_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  /// Largest item id seen plus one (0 when empty) — the width of any
  /// per-item count array over this database.
  [[nodiscard]] std::size_t item_id_bound() const { return item_id_bound_; }

  /// Total number of stored item occurrences (distinct rows only; a row's
  /// weight does not multiply its item count here).
  [[nodiscard]] std::size_t total_items() const { return items_.size(); }

  /// Folds identical transactions into one row each, summing weights
  /// (distinct rows keep their first-occurrence order). total_weight()
  /// and every weighted support count are preserved exactly, so mining
  /// the returned database yields byte-identical results at a fraction
  /// of the insert/scan work.
  [[nodiscard]] TransactionDb dedup() const;

  /// Per-item weighted support counts, indexed by ItemId
  /// (size item_id_bound()).
  [[nodiscard]] std::vector<std::uint64_t> item_counts() const;

  void reserve(std::size_t transactions, std::size_t items_total);

 private:
  std::vector<ItemId> items_;
  std::vector<std::size_t> offsets_{0};
  std::vector<std::uint64_t> weights_;  // empty = every weight is 1
  std::uint64_t total_weight_ = 0;      // meaningful once weights_ exists
  std::size_t item_id_bound_ = 0;
};

/// The database re-encoded over *ranks*: every frequent item renumbered
/// 0..n-1 in support-descending order (ties by ItemId), infrequent items
/// dropped. One flat rank-sorted std::uint32_t buffer holds every
/// transaction back to back (CSR layout) — the input of the FP-Growth
/// tree build. Built once per mining run; 32-bit throughout, so the
/// database is capped at 2^32-1 transactions and ranks.
struct RankEncoding {
  std::vector<ItemId> item_of_rank;          // rank -> original item id
  std::vector<std::uint64_t> count_of_rank;  // rank -> weighted support
  std::vector<std::uint32_t> items;    // per-transaction ranks, ascending
  std::vector<std::uint32_t> offsets;  // CSR over `items`, size()+1 entries
  /// Per-transaction multiplicities; empty when the source database is
  /// unweighted (every transaction counts once).
  std::vector<std::uint64_t> weights;

  [[nodiscard]] std::size_t num_ranks() const { return item_of_rank.size(); }
  [[nodiscard]] std::size_t size() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }

  /// Transaction `i` as ascending ranks (empty if nothing was frequent).
  [[nodiscard]] std::span<const std::uint32_t> transaction(std::size_t i) const {
    return {items.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

/// Builds the rank encoding for items with support >= `min_count`.
[[nodiscard]] RankEncoding rank_encode(const TransactionDb& db,
                                       std::uint64_t min_count);

}  // namespace gpumine::core
