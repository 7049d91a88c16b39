#include "core/item_catalog.hpp"

#include "common/ensure.hpp"

namespace gpumine::core {

ItemId ItemCatalog::intern(std::string_view name) {
  GPUMINE_CHECK_ARG(!name.empty(), "item name must be non-empty");
  if (auto it = index_.find(std::string(name)); it != index_.end()) {
    return it->second;
  }
  const auto id = static_cast<ItemId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

std::optional<ItemId> ItemCatalog::find(std::string_view name) const {
  auto it = index_.find(std::string(name));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

const std::string& ItemCatalog::name(ItemId id) const {
  GPUMINE_CHECK_ARG(id < names_.size(),
                    "unknown ItemId " + std::to_string(id));
  return names_[id];
}

std::string ItemCatalog::render(std::span<const ItemId> items) const {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += name(items[i]);
  }
  return out;
}

}  // namespace gpumine::core
