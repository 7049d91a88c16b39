// Read-only support lookup shared across the whole rule stage.
//
// Rule generation (Sec. III-B), keyword pruning (Sec. III-D), negative
// rules and the snapshot loader's family checks all need the same
// sigma(X) lookups; this is the one table that answers them.
// SupportIndex builds the table once from a mining result and is
// immutable afterwards, so one instance can back rule generation for any
// number of keywords — and can be read concurrently by the
// rule-generation worker shards without locking.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/frequent.hpp"
#include "core/itemset.hpp"

namespace gpumine::core {

class SupportIndex {
 public:
  /// Empty index over an empty database; find() misses every lookup.
  SupportIndex() = default;

  /// Indexes every itemset of `mined` (linear in output size).
  explicit SupportIndex(const MiningResult& mined);

  [[nodiscard]] std::uint64_t db_size() const { return db_size_; }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool empty() const { return map_.empty(); }

  /// Support count of a canonical itemset, or nullopt when it was not
  /// among the mined frequent itemsets.
  [[nodiscard]] std::optional<std::uint64_t> find(
      std::span<const ItemId> items) const;

 private:
  SupportMap map_;
  std::uint64_t db_size_ = 0;
};

}  // namespace gpumine::core
