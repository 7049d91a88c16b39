#include "core/itemset.hpp"

#include <algorithm>

namespace gpumine::core {

void canonicalize(Itemset& items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
}

bool is_canonical(std::span<const ItemId> items) {
  for (std::size_t i = 1; i < items.size(); ++i) {
    if (items[i - 1] >= items[i]) return false;
  }
  return true;
}

bool is_subset(std::span<const ItemId> sub, std::span<const ItemId> super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

bool contains(std::span<const ItemId> items, ItemId item) {
  return std::binary_search(items.begin(), items.end(), item);
}

Itemset set_union(std::span<const ItemId> a, std::span<const ItemId> b) {
  Itemset out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

bool disjoint(std::span<const ItemId> a, std::span<const ItemId> b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace gpumine::core
