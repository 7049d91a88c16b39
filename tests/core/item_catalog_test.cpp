#include "core/item_catalog.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace gpumine::core {
namespace {

TEST(ItemCatalog, InternAssignsDenseIdsInFirstSeenOrder) {
  ItemCatalog catalog;
  EXPECT_EQ(catalog.intern("Failed"), 0u);
  EXPECT_EQ(catalog.intern("Tensorflow"), 1u);
  EXPECT_EQ(catalog.intern("Failed"), 0u);  // idempotent
  EXPECT_EQ(catalog.size(), 2u);
}

TEST(ItemCatalog, FindReturnsNulloptForUnknown) {
  ItemCatalog catalog;
  catalog.intern("A");
  EXPECT_TRUE(catalog.find("A").has_value());
  EXPECT_FALSE(catalog.find("B").has_value());
}

TEST(ItemCatalog, NameThrowsOnUnknownId) {
  ItemCatalog catalog;
  catalog.intern("A");
  EXPECT_THROW((void)catalog.name(5), std::invalid_argument);
}

TEST(ItemCatalog, EmptyNameRejected) {
  ItemCatalog catalog;
  EXPECT_THROW((void)catalog.intern(""), std::invalid_argument);
}

TEST(ItemCatalog, RenderJoinsWithCommas) {
  ItemCatalog catalog;
  const ItemId a = catalog.intern("Failed");
  const ItemId b = catalog.intern("Multi-GPU");
  EXPECT_EQ(catalog.render(Itemset{a, b}), "Failed, Multi-GPU");
  EXPECT_EQ(catalog.render(Itemset{}), "");
}

TEST(ItemCatalog, ManyItemsStayConsistent) {
  ItemCatalog catalog;
  for (int i = 0; i < 1000; ++i) {
    catalog.intern("item" + std::to_string(i));
  }
  EXPECT_EQ(catalog.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    const auto id = catalog.find("item" + std::to_string(i));
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(catalog.name(*id), "item" + std::to_string(i));
  }
}

}  // namespace
}  // namespace gpumine::core
