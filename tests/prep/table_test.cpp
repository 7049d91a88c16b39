#include "prep/table.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace gpumine::prep {
namespace {

TEST(NumericColumn, MissingIsNaN) {
  NumericColumn col;
  col.push(1.5);
  col.push_missing();
  EXPECT_FALSE(col.is_missing(0));
  EXPECT_TRUE(col.is_missing(1));
  EXPECT_TRUE(std::isnan(col.values[1]));
}

TEST(CategoricalColumn, InternAndLookup) {
  CategoricalColumn col;
  col.push("a");
  col.push("b");
  col.push("a");
  col.push_missing();
  EXPECT_EQ(col.size(), 4u);
  EXPECT_EQ(col.num_labels(), 2u);
  EXPECT_EQ(col.code(0), col.code(2));
  EXPECT_NE(col.code(0), col.code(1));
  EXPECT_TRUE(col.is_missing(3));
  EXPECT_EQ(col.label(0), "a");
  EXPECT_THROW((void)col.label(3), std::invalid_argument);
}

TEST(CategoricalColumn, FindAndPushCode) {
  CategoricalColumn col;
  const auto code = col.intern("x");
  EXPECT_EQ(col.intern("x"), code);
  EXPECT_EQ(col.label_of_code(code), "x");
  EXPECT_EQ(col.num_labels(), 1u);
  col.push_code(code);
  col.push_code(CategoricalColumn::kMissing);
  EXPECT_THROW(col.push_code(42), std::invalid_argument);
  EXPECT_EQ(col.size(), 2u);
}

TEST(CategoricalColumn, ValueCountsSkipMissing) {
  CategoricalColumn col;
  col.push("a");
  col.push("a");
  col.push("b");
  col.push_missing();
  const auto counts = col.value_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[static_cast<std::size_t>(col.intern("a"))], 2u);
  EXPECT_EQ(counts[static_cast<std::size_t>(col.intern("b"))], 1u);
}

TEST(Table, AddAndAccessColumns) {
  Table t;
  auto& num = t.add_numeric("x");
  auto& cat = t.add_categorical("y");
  num.push(1.0);
  cat.push("a");
  EXPECT_TRUE(t.has_column("x"));
  EXPECT_TRUE(t.is_numeric("x"));
  EXPECT_FALSE(t.is_numeric("y"));
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.numeric("x").values[0], 1.0);
  EXPECT_EQ(t.categorical("y").label(0), "a");
}

TEST(Table, ColumnReferencesSurviveFurtherAdds) {
  Table t;
  auto& first = t.add_numeric("c0");
  for (int i = 1; i < 50; ++i) {
    t.add_numeric("c" + std::to_string(i));
  }
  first.push(42.0);  // must not be a dangling reference
  EXPECT_EQ(t.numeric("c0").values[0], 42.0);
}

TEST(Table, DuplicateAndUnknownColumnNames) {
  Table t;
  t.add_numeric("x");
  EXPECT_THROW((void)t.add_numeric("x"), std::invalid_argument);
  EXPECT_THROW((void)t.add_categorical("x"), std::invalid_argument);
  EXPECT_THROW((void)t.numeric("missing"), std::invalid_argument);
  EXPECT_THROW((void)t.categorical("x"), std::invalid_argument);  // wrong type
}

TEST(Table, RaggedTableDetected) {
  Table t;
  t.add_numeric("x").push(1.0);
  t.add_numeric("y");  // zero rows
  EXPECT_THROW((void)t.num_rows(), std::logic_error);
}

TEST(Table, ReplaceColumnChangesType) {
  Table t;
  auto& num = t.add_numeric("x");
  num.push(1.0);
  num.push(2.0);
  CategoricalColumn replacement;
  replacement.push("lo");
  replacement.push("hi");
  t.replace_column("x", std::move(replacement));
  EXPECT_FALSE(t.is_numeric("x"));
  EXPECT_EQ(t.categorical("x").label(1), "hi");
}

TEST(Table, ReplaceColumnSizeMismatchThrows) {
  Table t;
  t.add_numeric("x").push(1.0);
  CategoricalColumn wrong_size;
  EXPECT_THROW(t.replace_column("x", std::move(wrong_size)),
               std::invalid_argument);
}

TEST(Table, DropColumnReindexes) {
  Table t;
  t.add_numeric("a").push(1.0);
  t.add_numeric("b").push(2.0);
  t.add_numeric("c").push(3.0);
  t.drop_column("b");
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_FALSE(t.has_column("b"));
  EXPECT_EQ(t.numeric("c").values[0], 3.0);
  EXPECT_EQ(t.column_name(1), "c");
}

TEST(Table, FilterRows) {
  Table t;
  auto& num = t.add_numeric("x");
  auto& cat = t.add_categorical("y");
  for (int i = 0; i < 4; ++i) {
    num.push(i);
    if (i == 2) {
      cat.push_missing();
    } else {
      cat.push("v" + std::to_string(i));
    }
  }
  const Table f = t.filter_rows({true, false, true, true});
  EXPECT_EQ(f.num_rows(), 3u);
  EXPECT_EQ(f.numeric("x").values, (std::vector<double>{0, 2, 3}));
  EXPECT_TRUE(f.categorical("y").is_missing(1));
  EXPECT_EQ(f.categorical("y").label(2), "v3");
}

TEST(Table, FilterRowsMaskSizeMismatch) {
  Table t;
  t.add_numeric("x").push(1.0);
  EXPECT_THROW((void)t.filter_rows({true, false}), std::invalid_argument);
}

}  // namespace
}  // namespace gpumine::prep
