// Itemset primitives.
//
// An item is a dense integer id handed out by ItemCatalog; an Itemset is a
// strictly-increasing vector of item ids. Every algorithm in gpumine::core
// relies on that sorted-unique canonical form, so the helpers here either
// produce it (canonicalize) or assume and preserve it (subset/union/...).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace gpumine::core {

/// Dense identifier of a single item ("attr=value"), assigned by ItemCatalog.
using ItemId = std::uint32_t;

/// Canonical itemset: strictly increasing vector of ItemId.
using Itemset = std::vector<ItemId>;

/// Sorts and deduplicates `items` in place, establishing canonical form.
void canonicalize(Itemset& items);

/// True iff `items` is strictly increasing (the canonical form).
[[nodiscard]] bool is_canonical(std::span<const ItemId> items);

/// True iff every element of `sub` occurs in `super`.
/// Both inputs must be canonical; runs one merge pass, O(|super|).
[[nodiscard]] bool is_subset(std::span<const ItemId> sub,
                             std::span<const ItemId> super);

/// True iff canonical `items` contains `item` (binary search).
[[nodiscard]] bool contains(std::span<const ItemId> items, ItemId item);

/// Set union of two canonical itemsets; result is canonical.
[[nodiscard]] Itemset set_union(std::span<const ItemId> a,
                                std::span<const ItemId> b);

/// True iff the two canonical itemsets share no element.
[[nodiscard]] bool disjoint(std::span<const ItemId> a,
                            std::span<const ItemId> b);

/// FNV-1a over the id sequence. Equal itemsets hash equal because the
/// canonical form is unique.
struct ItemsetHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::span<const ItemId> items) const noexcept {
    std::uint64_t h = 1469598103934665603ull;
    for (ItemId id : items) {
      h ^= id;
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
  [[nodiscard]] std::size_t operator()(const Itemset& items) const noexcept {
    return (*this)(std::span<const ItemId>(items));
  }
};

/// Transparent equality matching ItemsetHash.
struct ItemsetEq {
  using is_transparent = void;
  [[nodiscard]] bool operator()(std::span<const ItemId> a,
                                std::span<const ItemId> b) const noexcept {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  [[nodiscard]] bool operator()(const Itemset& a, const Itemset& b) const noexcept {
    return a == b;
  }
  [[nodiscard]] bool operator()(const Itemset& a, std::span<const ItemId> b) const noexcept {
    return (*this)(std::span<const ItemId>(a), b);
  }
  [[nodiscard]] bool operator()(std::span<const ItemId> a, const Itemset& b) const noexcept {
    return (*this)(a, std::span<const ItemId>(b));
  }
};

}  // namespace gpumine::core
