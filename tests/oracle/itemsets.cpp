#include "oracle/itemsets.hpp"

#include <algorithm>

namespace gpumine::core {

std::uint64_t support_count(const TransactionDb& db,
                            std::span<const ItemId> itemset) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < db.size(); ++i) {
    if (is_subset(itemset, db[i])) count += db.weight(i);
  }
  return count;
}

bool same_itemsets(const MiningResult& a, const MiningResult& b) {
  return a.db_size == b.db_size && a.itemsets == b.itemsets;
}

std::uint64_t support_from_closed(const std::vector<FrequentItemset>& closed,
                                  const Itemset& itemset) {
  // supp(X) = max over closed supersets C ⊇ X of supp(C). (The smallest
  // closed superset carries the true support; any other closed superset
  // supports at most that, so the max is correct and simpler.)
  std::uint64_t best = 0;
  for (const auto& c : closed) {
    if (c.items.size() >= itemset.size() && is_subset(itemset, c.items)) {
      best = std::max(best, c.count);
    }
  }
  return best;
}

std::string debug_string(std::span<const ItemId> items) {
  std::string out = "{";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(items[i]);
  }
  out += "}";
  return out;
}

}  // namespace gpumine::core
