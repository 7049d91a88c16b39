#include "core/transaction_db.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/ensure.hpp"
#include "common/trace.hpp"

namespace gpumine::core {

void TransactionDb::add(Itemset transaction, std::uint64_t weight) {
  GPUMINE_CHECK_ARG(weight >= 1, "transaction weight must be >= 1");
  canonicalize(transaction);
  if (!transaction.empty()) {
    item_id_bound_ = std::max(
        item_id_bound_, static_cast<std::size_t>(transaction.back()) + 1);
  }
  items_.insert(items_.end(), transaction.begin(), transaction.end());
  offsets_.push_back(items_.size());
  if (weight != 1 && weights_.empty()) {
    // First non-unit weight: backfill the implicit 1s. size() already
    // counts this transaction, so size() - 1 rows precede it (possibly
    // zero — the assign must not gate the push below).
    weights_.assign(size() - 1, 1);
    total_weight_ = size() - 1;
    weights_.push_back(weight);
    total_weight_ += weight;
  } else if (!weights_.empty()) {
    weights_.push_back(weight);
    total_weight_ += weight;
  }
}

TransactionDb TransactionDb::dedup() const {
  GPUMINE_SPAN("prep/dedup");
  TransactionDb out;
  std::unordered_map<Itemset, std::size_t, ItemsetHash, ItemsetEq> row_index;
  row_index.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    const std::span<const ItemId> row = (*this)[i];
    if (const auto it = row_index.find(row); it != row_index.end()) {
      out.weights_[it->second] += weight(i);
    } else {
      row_index.emplace(Itemset(row.begin(), row.end()), out.size());
      out.items_.insert(out.items_.end(), row.begin(), row.end());
      out.offsets_.push_back(out.items_.size());
      out.weights_.push_back(weight(i));
    }
  }
  out.total_weight_ = total_weight();
  out.item_id_bound_ = item_id_bound_;
  return out;
}

std::vector<std::uint64_t> TransactionDb::item_counts() const {
  std::vector<std::uint64_t> counts(item_id_bound_, 0);
  if (weights_.empty()) {
    for (ItemId id : items_) ++counts[id];
  } else {
    for (std::size_t t = 0; t < size(); ++t) {
      const std::uint64_t w = weights_[t];
      for (ItemId id : (*this)[t]) counts[id] += w;
    }
  }
  return counts;
}

void TransactionDb::reserve(std::size_t transactions, std::size_t items_total) {
  offsets_.reserve(transactions + 1);
  items_.reserve(items_total);
}

RankEncoding rank_encode(const TransactionDb& db, std::uint64_t min_count) {
  constexpr std::uint32_t kNoRank = std::numeric_limits<std::uint32_t>::max();
  GPUMINE_ENSURE(db.size() < kNoRank && db.total_items() < kNoRank,
                 "rank encoding is 32-bit");

  RankEncoding enc;
  const auto counts = db.item_counts();
  for (ItemId id = 0; id < counts.size(); ++id) {
    if (counts[id] >= min_count) enc.item_of_rank.push_back(id);
  }
  std::sort(enc.item_of_rank.begin(), enc.item_of_rank.end(),
            [&](ItemId a, ItemId b) {
              if (counts[a] != counts[b]) return counts[a] > counts[b];
              return a < b;
            });

  enc.count_of_rank.resize(enc.num_ranks());
  std::vector<std::uint32_t> rank_of(db.item_id_bound(), kNoRank);
  for (std::uint32_t r = 0; r < enc.num_ranks(); ++r) {
    rank_of[enc.item_of_rank[r]] = r;
    enc.count_of_rank[r] = counts[enc.item_of_rank[r]];
  }

  if (db.weighted()) {
    enc.weights.reserve(db.size());
    for (std::size_t t = 0; t < db.size(); ++t) {
      enc.weights.push_back(db.weight(t));
    }
  }

  enc.offsets.reserve(db.size() + 1);
  enc.offsets.push_back(0);
  enc.items.reserve(db.total_items());
  for (std::size_t t = 0; t < db.size(); ++t) {
    const std::size_t begin = enc.items.size();
    for (ItemId id : db[t]) {
      if (rank_of[id] != kNoRank) enc.items.push_back(rank_of[id]);
    }
    // Items arrive ascending by id; paths must ascend by *rank*.
    std::sort(enc.items.begin() + static_cast<std::ptrdiff_t>(begin),
              enc.items.end());
    enc.offsets.push_back(static_cast<std::uint32_t>(enc.items.size()));
  }
  return enc;
}

}  // namespace gpumine::core
