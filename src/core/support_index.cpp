#include "core/support_index.hpp"

#include "common/ensure.hpp"

namespace gpumine::core {

SupportIndex::SupportIndex(const MiningResult& mined)
    : db_size_(mined.db_size) {
  map_.reserve(mined.itemsets.size());
  for (const auto& fi : mined.itemsets) map_.emplace(fi.items, fi.count);
}

std::optional<std::uint64_t> SupportIndex::find(
    std::span<const ItemId> items) const {
  const auto it = map_.find(items);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t SupportIndex::count(std::span<const ItemId> items) const {
  const auto it = map_.find(items);
  GPUMINE_ENSURE(it != map_.end(),
                 "itemset missing from the support index (not a subset of "
                 "any mined frequent itemset?)");
  return it->second;
}

double SupportIndex::support(std::span<const ItemId> items) const {
  if (db_size_ == 0) return 0.0;
  return static_cast<double>(count(items)) / static_cast<double>(db_size_);
}

ContingencyCounts SupportIndex::contingency(
    std::span<const ItemId> antecedent,
    std::span<const ItemId> consequent) const {
  GPUMINE_CHECK_ARG(disjoint(antecedent, consequent),
                    "antecedent and consequent must be disjoint");
  ContingencyCounts counts;
  counts.antecedent = count(antecedent);
  counts.consequent = count(consequent);
  counts.joint = count(set_union(antecedent, consequent));
  counts.total = db_size_;
  return counts;
}

}  // namespace gpumine::core
