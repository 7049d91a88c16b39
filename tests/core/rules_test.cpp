#include "core/rules.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/fpgrowth.hpp"
#include "mining_test_util.hpp"
#include "oracle/itemsets.hpp"

namespace gpumine::core {
namespace {

using testutil::make_db;

TEST(MakeRule, MetricsMatchDefinitions) {
  // |D| = 100, sigma(X)=40, sigma(Y)=50, sigma(XY)=30.
  const Rule r = make_rule({0}, {1}, 30, 40, 50, 100);
  EXPECT_DOUBLE_EQ(r.support, 0.30);                 // Eq. 2
  EXPECT_DOUBLE_EQ(r.confidence, 0.75);              // Eq. 3
  EXPECT_DOUBLE_EQ(r.lift, 0.75 / 0.50);             // Eq. 4
  EXPECT_DOUBLE_EQ(r.leverage, 0.30 - 0.40 * 0.50);  // supp - supp*supp
  EXPECT_DOUBLE_EQ(r.conviction, (1 - 0.5) / (1 - 0.75));
}

TEST(MakeRule, IndependentItemsetsHaveLiftOne) {
  // P(X)=0.5, P(Y)=0.4, P(XY)=0.2 => independent.
  const Rule r = make_rule({0}, {1}, 20, 50, 40, 100);
  EXPECT_DOUBLE_EQ(r.lift, 1.0);
  EXPECT_DOUBLE_EQ(r.leverage, 0.0);
}

TEST(MakeRule, PerfectConfidenceGivesInfiniteConviction) {
  const Rule r = make_rule({0}, {1}, 40, 40, 50, 100);
  EXPECT_DOUBLE_EQ(r.confidence, 1.0);
  EXPECT_TRUE(std::isinf(r.conviction));
}

TEST(MakeRule, ValidationRejectsBadInput) {
  EXPECT_THROW((void)make_rule({0}, {1}, 10, 5, 20, 100),
               std::invalid_argument);  // joint > antecedent
  EXPECT_THROW((void)make_rule({0}, {1}, 10, 20, 5, 100),
               std::invalid_argument);  // joint > consequent
  EXPECT_THROW((void)make_rule({}, {1}, 1, 1, 1, 10), std::invalid_argument);
  EXPECT_THROW((void)make_rule({0}, {}, 1, 1, 1, 10), std::invalid_argument);
  EXPECT_THROW((void)make_rule({0, 1}, {1}, 1, 1, 1, 10),
               std::invalid_argument);  // overlap
  EXPECT_THROW((void)make_rule({0}, {1}, 1, 1, 1, 0), std::invalid_argument);
}

TEST(GenerateRules, EnumeratesAllSplits) {
  // Three perfectly correlated items: every split of {0,1,2} plus every
  // split of each pair qualifies (conf = 1, lift = 1 < 1.5 though!).
  // Use min_lift 0 to see the raw enumeration: a k-itemset yields
  // 2^k - 2 rules.
  const auto db = make_db({{0, 1, 2}, {0, 1, 2}});
  MiningParams mp;
  mp.min_support = 1.0;
  const auto mined = mine_fpgrowth(db, mp);
  RuleParams rp;
  rp.min_lift = 0.0;
  const auto rules = generate_rules(mined, rp);
  // Pairs: 3 itemsets x 2 rules; triple: 1 x 6.
  EXPECT_EQ(rules.size(), 12u);
  for (const Rule& r : rules) {
    EXPECT_DOUBLE_EQ(r.confidence, 1.0);
    EXPECT_DOUBLE_EQ(r.lift, 1.0);  // items present in every transaction
    EXPECT_TRUE(disjoint(r.antecedent, r.consequent));
    EXPECT_FALSE(r.antecedent.empty());
    EXPECT_FALSE(r.consequent.empty());
  }
}

TEST(GenerateRules, LiftThresholdFilters) {
  // Item 2 occurs in half the db; {0,1} co-occur only with 2.
  const auto db = make_db({{0, 1, 2}, {0, 1, 2}, {2, 3}, {3}, {4}, {4, 3}});
  MiningParams mp;
  mp.min_support = 2.0 / 6.0;
  const auto mined = mine_fpgrowth(db, mp);
  RuleParams rp;
  rp.min_lift = 1.5;
  const auto rules = generate_rules(mined, rp);
  for (const Rule& r : rules) {
    EXPECT_GE(r.lift, 1.5 - 1e-9);
  }
  // {0} => {1} has conf 1 and supp(1) = 1/3 -> lift 3: must be present.
  const bool found = std::any_of(rules.begin(), rules.end(), [](const Rule& r) {
    return r.antecedent == Itemset{0} && r.consequent == Itemset{1};
  });
  EXPECT_TRUE(found);
}

TEST(GenerateRules, ConfidenceThresholdFilters) {
  const auto db = make_db({{0, 1}, {0, 1}, {0}, {0}, {1}});
  MiningParams mp;
  mp.min_support = 0.2;
  const auto mined = mine_fpgrowth(db, mp);
  RuleParams rp;
  rp.min_lift = 0.0;
  rp.min_confidence = 0.6;
  const auto rules = generate_rules(mined, rp);
  // conf({0}=>{1}) = 2/4 = 0.5 (filtered); conf({1}=>{0}) = 2/3 (kept).
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].antecedent, Itemset{1});
}

TEST(GenerateRules, MetricsAgreeWithScanOracle) {
  const auto db = testutil::random_db(/*seed=*/5, /*num_txns=*/150,
                                      /*num_items=*/9);
  MiningParams mp;
  mp.min_support = 0.1;
  const auto mined = mine_fpgrowth(db, mp);
  RuleParams rp;
  rp.min_lift = 0.0;
  const auto rules = generate_rules(mined, rp);
  ASSERT_FALSE(rules.empty());
  const double n = static_cast<double>(db.size());
  for (const Rule& r : rules) {
    const auto joint = static_cast<double>(
        support_count(db, set_union(r.antecedent, r.consequent)));
    const auto sx = static_cast<double>(support_count(db, r.antecedent));
    const auto sy = static_cast<double>(support_count(db, r.consequent));
    EXPECT_NEAR(r.support, joint / n, 1e-12);
    EXPECT_NEAR(r.confidence, joint / sx, 1e-12);
    EXPECT_NEAR(r.lift, (joint / sx) / (sy / n), 1e-9);
  }
}

TEST(GenerateRules, DeterministicOrdering) {
  const auto db = testutil::random_db(/*seed=*/5, /*num_txns=*/100,
                                      /*num_items=*/8);
  MiningParams mp;
  mp.min_support = 0.1;
  const auto mined = mine_fpgrowth(db, mp);
  const auto a = generate_rules(mined, RuleParams{});
  const auto b = generate_rules(mined, RuleParams{});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].antecedent, b[i].antecedent);
    EXPECT_EQ(a[i].consequent, b[i].consequent);
  }
  // Sorted by lift descending.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i - 1].lift, a[i].lift);
  }
}

TEST(RuleParams, Validation) {
  RuleParams bad;
  bad.min_confidence = -0.1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.min_confidence = 1.1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.min_confidence = 0.5;
  bad.min_lift = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace gpumine::core
