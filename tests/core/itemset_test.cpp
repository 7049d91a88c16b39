#include "core/itemset.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "oracle/itemsets.hpp"

namespace gpumine::core {
namespace {

TEST(Itemset, CanonicalizeSortsAndDeduplicates) {
  Itemset s{5, 1, 3, 1, 5, 2};
  canonicalize(s);
  EXPECT_EQ(s, (Itemset{1, 2, 3, 5}));
  EXPECT_TRUE(is_canonical(s));
}

TEST(Itemset, CanonicalizeEmptyAndSingleton) {
  Itemset empty;
  canonicalize(empty);
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(is_canonical(empty));

  Itemset one{7};
  canonicalize(one);
  EXPECT_EQ(one, Itemset{7});
}

TEST(Itemset, IsCanonicalRejectsUnsortedAndDuplicates) {
  EXPECT_FALSE(is_canonical(Itemset{2, 1}));
  EXPECT_FALSE(is_canonical(Itemset{1, 1}));
  EXPECT_TRUE(is_canonical(Itemset{1, 2, 9}));
}

TEST(Itemset, SubsetBasics) {
  const Itemset super{1, 3, 5, 7};
  EXPECT_TRUE(is_subset(Itemset{}, super));
  EXPECT_TRUE(is_subset(Itemset{3}, super));
  EXPECT_TRUE(is_subset(Itemset{1, 7}, super));
  EXPECT_TRUE(is_subset(super, super));
  EXPECT_FALSE(is_subset(Itemset{2}, super));
  EXPECT_FALSE(is_subset(Itemset{1, 3, 5, 7, 9}, super));
}

TEST(Itemset, ContainsUsesBinarySearch) {
  const Itemset s{2, 4, 8, 16};
  EXPECT_TRUE(contains(s, 2));
  EXPECT_TRUE(contains(s, 16));
  EXPECT_FALSE(contains(s, 3));
  EXPECT_FALSE(contains(Itemset{}, 1));
}

TEST(Itemset, SetAlgebra) {
  const Itemset a{1, 2, 3};
  const Itemset b{2, 3, 4};
  EXPECT_EQ(set_union(a, b), (Itemset{1, 2, 3, 4}));
}

TEST(Itemset, SetAlgebraWithEmpty) {
  const Itemset a{1, 2};
  EXPECT_EQ(set_union(a, Itemset{}), a);
}

TEST(Itemset, Disjoint) {
  EXPECT_TRUE(disjoint(Itemset{1, 3}, Itemset{2, 4}));
  EXPECT_FALSE(disjoint(Itemset{1, 3}, Itemset{3}));
  EXPECT_TRUE(disjoint(Itemset{}, Itemset{1}));
}

TEST(Itemset, HashAgreesWithEquality) {
  const ItemsetHash hash;
  const ItemsetEq eq;
  const Itemset a{1, 2, 3};
  const Itemset b{1, 2, 3};
  const Itemset c{1, 2, 4};
  EXPECT_TRUE(eq(a, b));
  EXPECT_EQ(hash(a), hash(b));
  EXPECT_FALSE(eq(a, c));
  // Span-based (heterogeneous) lookup must hash identically.
  EXPECT_EQ(hash(std::span<const ItemId>(a)), hash(a));
}

TEST(Itemset, HashDistinguishesPermutationSensitiveCases) {
  const ItemsetHash hash;
  // {1,2} vs {2,1} never co-occur canonically, but {} vs {0} and nesting
  // must not collide trivially.
  EXPECT_NE(hash(Itemset{}), hash(Itemset{0}));
  EXPECT_NE(hash(Itemset{1}), hash(Itemset{1, 2}));
}

TEST(Itemset, WorksAsUnorderedSetKey) {
  std::unordered_set<Itemset, ItemsetHash, ItemsetEq> set;
  set.insert({1, 2});
  set.insert({1, 2});
  set.insert({2, 3});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(Itemset{1, 2}));
}

TEST(Itemset, DebugString) {
  EXPECT_EQ(debug_string(Itemset{}), "{}");
  EXPECT_EQ(debug_string(Itemset{1, 2}), "{1, 2}");
}

}  // namespace
}  // namespace gpumine::core
