#include "prep/encoder.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace gpumine::prep {
namespace {

Table small_table() {
  Table t;
  auto& status = t.add_categorical("Status");
  auto& gpu = t.add_categorical("GPU");
  status.push("Failed");
  gpu.push("Multi");
  status.push("Passed");
  gpu.push("Single");
  status.push("Passed");
  gpu.push_missing();
  return t;
}

TEST(Encoder, OneHotEncoding) {
  EncoderParams p;
  p.dominance_threshold = 1.1;  // keep everything
  const auto result = encode(small_table(), p);
  EXPECT_EQ(result.db.size(), 3u);
  EXPECT_EQ(result.catalog.size(), 4u);
  const auto failed = result.catalog.find("Status = Failed");
  const auto multi = result.catalog.find("GPU = Multi");
  ASSERT_TRUE(failed && multi);
  const auto t0 = result.db[0];
  EXPECT_EQ(t0.size(), 2u);
  EXPECT_TRUE(core::contains(t0, *failed));
  EXPECT_TRUE(core::contains(t0, *multi));
  // Missing cell -> one item only.
  EXPECT_EQ(result.db[2].size(), 1u);
}

TEST(Encoder, BareLabelColumns) {
  EncoderParams p;
  p.dominance_threshold = 1.1;
  p.bare_label_columns = {"Status"};
  const auto result = encode(small_table(), p);
  EXPECT_TRUE(result.catalog.find("Failed").has_value());
  EXPECT_FALSE(result.catalog.find("Status = Failed").has_value());
  EXPECT_TRUE(result.catalog.find("GPU = Multi").has_value());
}

TEST(Encoder, DominanceFilterDropsNearUniversalItems) {
  Table t;
  auto& col = t.add_categorical("GPUs");
  for (int i = 0; i < 90; ++i) col.push("Single");  // 90% > 80%
  for (int i = 0; i < 10; ++i) col.push("Multi");
  const auto result = encode(t, EncoderParams{});
  EXPECT_FALSE(result.catalog.find("GPUs = Single").has_value());
  EXPECT_TRUE(result.catalog.find("GPUs = Multi").has_value());
  ASSERT_EQ(result.dropped_items.size(), 1u);
  EXPECT_EQ(result.dropped_items[0], "GPUs = Single");
  // Transactions of dropped-item rows become empty, not removed.
  EXPECT_EQ(result.db.size(), 100u);
  EXPECT_TRUE(result.db[0].empty());
}

TEST(Encoder, DominanceThresholdBoundaryIsStrict) {
  // Exactly 80%: "present in more than 80%" (paper) -> kept.
  Table t;
  auto& col = t.add_categorical("X");
  for (int i = 0; i < 80; ++i) col.push("a");
  for (int i = 0; i < 20; ++i) col.push("b");
  const auto result = encode(t, EncoderParams{});
  EXPECT_TRUE(result.catalog.find("X = a").has_value());
}

TEST(Encoder, NumericColumnRejected) {
  Table t;
  t.add_numeric("Runtime").push(1.0);
  EXPECT_THROW((void)encode(t, EncoderParams{}), std::invalid_argument);
}

TEST(Encoder, DeterministicItemIds) {
  const auto a = encode(small_table(), EncoderParams{});
  const auto b = encode(small_table(), EncoderParams{});
  ASSERT_EQ(a.catalog.size(), b.catalog.size());
  for (core::ItemId id = 0; id < a.catalog.size(); ++id) {
    EXPECT_EQ(a.catalog.name(id), b.catalog.name(id));
  }
}

// The counting and row passes split across the pool; the database, the
// item ids and the dropped items must not depend on the width.
TEST(Encoder, SameResultAtAnyWidth) {
  EncoderParams p;
  p.dominance_threshold = 0.5;  // drops "Status = Passed" (2 of 3 rows)
  const auto serial = encode(small_table(), p);
  for (const std::size_t width : {2u, 4u}) {
    const auto parallel = encode(small_table(), p, width);
    ASSERT_EQ(parallel.db.size(), serial.db.size()) << width;
    for (std::size_t i = 0; i < serial.db.size(); ++i) {
      EXPECT_TRUE(std::ranges::equal(parallel.db[i], serial.db[i])) << width;
    }
    ASSERT_EQ(parallel.catalog.size(), serial.catalog.size()) << width;
    for (core::ItemId id = 0; id < serial.catalog.size(); ++id) {
      EXPECT_EQ(parallel.catalog.name(id), serial.catalog.name(id)) << width;
    }
    EXPECT_EQ(parallel.dropped_items, serial.dropped_items) << width;
  }
}

TEST(Encoder, TransactionsAreCanonical) {
  const auto result = encode(small_table(), EncoderParams{});
  for (std::size_t i = 0; i < result.db.size(); ++i) {
    EXPECT_TRUE(core::is_canonical(result.db[i]));
  }
}

TEST(Encoder, ValidatesParams) {
  EncoderParams bad;
  bad.dominance_threshold = 0.0;
  EXPECT_THROW((void)encode(small_table(), bad), std::invalid_argument);
}

}  // namespace
}  // namespace gpumine::prep
