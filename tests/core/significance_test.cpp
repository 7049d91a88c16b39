#include "core/significance.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gpumine::core {
namespace {

TEST(LogChoose, KnownValues) {
  EXPECT_NEAR(std::exp(log_choose(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(log_choose(10, 0)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(log_choose(10, 10)), 1.0, 1e-9);
  EXPECT_NEAR(std::exp(log_choose(52, 5)), 2598960.0, 1e-3);
  EXPECT_THROW((void)log_choose(3, 4), std::invalid_argument);
}

TEST(Fisher, HandComputedTable) {
  // |D|=10, |X|=5, |Y|=4, joint=4: P[K >= 4] with K ~ Hypergeom(10,4,5).
  // P[K=4] = C(4,4)*C(6,1)/C(10,5) = 6/252.
  const double p = fisher_pvalue({5, 4, 4, 10});
  EXPECT_NEAR(p, 6.0 / 252.0, 1e-12);
}

TEST(Fisher, RejectsInconsistentCounts) {
  EXPECT_THROW((void)fisher_pvalue({40, 50, 45, 100}), std::invalid_argument);
  EXPECT_THROW((void)fisher_pvalue({40, 50, 20, 0}), std::invalid_argument);
  EXPECT_THROW((void)fisher_pvalue({101, 50, 20, 100}), std::invalid_argument);
  // Inclusion-exclusion violation: |X|+|Y|-|XY| > |D|.
  EXPECT_THROW((void)fisher_pvalue({80, 80, 10, 100}), std::invalid_argument);
}

TEST(Fisher, FullTailIsOne) {
  // joint = 0: P[K >= 0] = 1.
  EXPECT_NEAR(fisher_pvalue({5, 4, 0, 10}), 1.0, 1e-12);
}

TEST(Fisher, IndependenceGivesLargePValue) {
  // Perfectly proportional table: joint = |X||Y|/|D|.
  const double p = fisher_pvalue({500, 400, 200, 1000});
  EXPECT_GT(p, 0.4);
}

TEST(Fisher, StrongAssociationGivesTinyPValue) {
  // |X| = |Y| = joint = 100 out of 1000: wildly over-represented.
  const double p = fisher_pvalue({100, 100, 100, 1000});
  EXPECT_LT(p, 1e-50);
}

TEST(Fisher, MonotoneInJointCount) {
  double previous = 1.1;
  for (std::uint64_t joint = 20; joint <= 40; joint += 5) {
    const double p = fisher_pvalue({100, 200, joint, 1000});
    EXPECT_LT(p, previous);
    previous = p;
  }
}

TEST(Fisher, LargeCountsStayFinite) {
  // A PAI-scale table: must not overflow or take visible time.
  const double p = fisher_pvalue({400000, 300000, 200000, 850000});
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
  EXPECT_LT(p, 1e-6);  // heavy over-representation at this scale
}

TEST(SignificantRules, BenjaminiHochbergFilters) {
  // Rule A: strong association; rule B: consistent with independence.
  const std::uint64_t n = 1000;
  const Rule strong = make_rule({0}, {1}, 90, 100, 100, n);
  const Rule indep = make_rule({2}, {3}, 10, 100, 100, n);
  const auto kept = significant_rules({strong, indep}, n, 0.01);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].rule.antecedent, Itemset{0});
  EXPECT_LT(kept[0].p_value, 1e-10);
}

TEST(SignificantRules, SortedAscendingPValue) {
  const std::uint64_t n = 1000;
  const std::vector<Rule> rules = {
      make_rule({0}, {1}, 40, 100, 100, n),
      make_rule({2}, {3}, 90, 100, 100, n),
      make_rule({4}, {5}, 60, 100, 100, n),
  };
  const auto kept = significant_rules(rules, n, 0.05);
  for (std::size_t i = 1; i < kept.size(); ++i) {
    EXPECT_LE(kept[i - 1].p_value, kept[i].p_value);
  }
  // The strongest (joint 90) must survive and rank first.
  ASSERT_FALSE(kept.empty());
  EXPECT_EQ(kept[0].rule.antecedent, Itemset{2});
}

TEST(SignificantRules, EmptyAndValidation) {
  EXPECT_TRUE(significant_rules({}, 100, 0.05).empty());
  EXPECT_THROW((void)significant_rules({}, 0, 0.05), std::invalid_argument);
  EXPECT_THROW((void)significant_rules({}, 100, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace gpumine::core
