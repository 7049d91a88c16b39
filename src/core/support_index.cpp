#include "core/support_index.hpp"

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

}  // namespace gpumine::core
