// ItemCatalog: bijective interning of item names to dense ItemIds.
//
// Items in the paper are nominal attributes of a job such as
// "SM Util = 0%", "GPU Type = None" or "Tensorflow" (Sec. III-B). The
// catalog assigns each distinct name a dense id so all mining runs on
// integers; names reappear only when rendering rules for the operator.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/itemset.hpp"

namespace gpumine::core {

class ItemCatalog {
 public:
  /// Returns the id of `name`, interning it if new. Ids are dense and
  /// assigned in first-seen order, so a catalog is deterministic given a
  /// deterministic interning sequence.
  ItemId intern(std::string_view name);

  /// Id of `name` if already interned.
  [[nodiscard]] std::optional<ItemId> find(std::string_view name) const;

  /// Name for an id. Throws std::invalid_argument on an unknown id.
  [[nodiscard]] const std::string& name(ItemId id) const;

  /// Renders a canonical itemset as "A, B, C" (paper table style).
  [[nodiscard]] std::string render(std::span<const ItemId> items) const;

  [[nodiscard]] std::size_t size() const { return names_.size(); }
  [[nodiscard]] bool empty() const { return names_.empty(); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, ItemId> index_;
};

}  // namespace gpumine::core
