#include "core/closed.hpp"

#include <algorithm>

namespace gpumine::core {
namespace {

// Groups itemsets by length for superset probing: a proper superset of a
// k-itemset within the frequent family differs by >= 1 item; immediate
// (k+1) supersets suffice for both closure and maximality checks because
// support is monotone along the subset lattice.
struct LengthIndex {
  // itemsets[k] = all frequent itemsets of length k (canonical order).
  std::vector<std::vector<const FrequentItemset*>> by_length;

  explicit LengthIndex(const MiningResult& mined) {
    for (const auto& fi : mined.itemsets) {
      const std::size_t k = fi.items.size();
      if (by_length.size() <= k) by_length.resize(k + 1);
      by_length[k].push_back(&fi);
    }
  }
};

}  // namespace

std::vector<FrequentItemset> closed_itemsets(const MiningResult& mined) {
  const LengthIndex index(mined);
  std::vector<FrequentItemset> out;
  for (const auto& fi : mined.itemsets) {
    const std::size_t k = fi.items.size();
    bool closed = true;
    if (k + 1 < index.by_length.size()) {
      for (const FrequentItemset* super : index.by_length[k + 1]) {
        if (super->count == fi.count && is_subset(fi.items, super->items)) {
          closed = false;
          break;
        }
      }
    }
    if (closed) out.push_back(fi);
  }
  sort_canonical(out);
  return out;
}

std::vector<FrequentItemset> maximal_itemsets(const MiningResult& mined) {
  const LengthIndex index(mined);
  std::vector<FrequentItemset> out;
  for (const auto& fi : mined.itemsets) {
    const std::size_t k = fi.items.size();
    bool maximal = true;
    if (k + 1 < index.by_length.size()) {
      for (const FrequentItemset* super : index.by_length[k + 1]) {
        if (is_subset(fi.items, super->items)) {
          maximal = false;
          break;
        }
      }
    }
    if (maximal) out.push_back(fi);
  }
  sort_canonical(out);
  return out;
}

}  // namespace gpumine::core
