// Tests for the four keyword pruning conditions of Sec. III-D.
//
// Rules are built with exact counts so lift/support land on chosen
// values; the keyword item is 9 throughout. C_lift = C_supp = 1.5
// (the paper's setting) unless stated.
#include "core/pruning.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "oracle/prune_all_pairs.hpp"

namespace gpumine::core {
namespace {

constexpr ItemId kKeyword = 9;
constexpr std::uint64_t kN = 1000;

Rule rule(Itemset x, Itemset y, std::uint64_t joint, std::uint64_t sx,
          std::uint64_t sy) {
  return make_rule(std::move(x), std::move(y), joint, sx, sy, kN);
}

bool survives(const std::vector<Rule>& out, const Itemset& x,
              const Itemset& y) {
  return std::any_of(out.begin(), out.end(), [&](const Rule& r) {
    return r.antecedent == x && r.consequent == y;
  });
}

// ---- Condition 1: cause analysis, nested antecedents, shared consequent.

TEST(PruneCondition1, ShorterRuleGeneralizesDropLonger) {
  // lift(R1) = 1.5, lift(R2) = 1.5: C_lift * lift(R1) >= lift(R2).
  const std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 30, 100, 200),     // R1: conf .3, lift 1.5
      rule({1, 2}, {kKeyword}, 15, 50, 200),   // R2: conf .3, lift 1.5
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_TRUE(survives(out, {1}, {kKeyword}));
  EXPECT_FALSE(survives(out, {1, 2}, {kKeyword}));
}

TEST(PruneCondition1, LongerRuleStrongerAndSupportedDropShorter) {
  // lift(R2) = 2.5 > 1.5 * lift(R1) = 2.25; supp(R2)*1.5 >= supp(R1).
  const std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 30, 100, 200),    // R1: lift 1.5, supp .030
      rule({1, 2}, {kKeyword}, 25, 50, 200),  // R2: lift 2.5, supp .025
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_FALSE(survives(out, {1}, {kKeyword}));
  EXPECT_TRUE(survives(out, {1, 2}, {kKeyword}));
}

TEST(PruneCondition1, StrongButRareLongerRuleKeepsBoth) {
  // lift(R2) beats the slack but its support is too small to oust R1.
  const std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 30, 100, 200),    // R1: lift 1.5, supp .030
      rule({1, 2}, {kKeyword}, 15, 30, 200),  // R2: lift 2.5, supp .015
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_TRUE(survives(out, {1}, {kKeyword}));
  EXPECT_TRUE(survives(out, {1, 2}, {kKeyword}));
}

TEST(PruneCondition1, RequiresSharedConsequent) {
  const std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 30, 100, 200),
      rule({1, 2}, {3, kKeyword}, 15, 50, 100),  // different consequent
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_EQ(out.size(), 2u);
}

// ---- Condition 2: characteristic analysis, shared antecedent with the
// keyword, nested consequents.

TEST(PruneCondition2, SpecificConsequentPreferredWhenClose) {
  // lifts equal, supports equal-ish: the longer consequent wins.
  const std::vector<Rule> rules = {
      rule({kKeyword}, {1}, 60, 100, 300),     // R1: lift 2.0, supp .06
      rule({kKeyword}, {1, 2}, 50, 100, 250),  // R2: lift 2.0, supp .05
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_FALSE(survives(out, {kKeyword}, {1}));
  EXPECT_TRUE(survives(out, {kKeyword}, {1, 2}));
}

TEST(PruneCondition2, ShortRuleClearlyStrongerDropsLongOne) {
  // lift(R1) = 3.0 > 1.5 * lift(R2) = 1.5 * 1.6 = 2.4.
  const std::vector<Rule> rules = {
      rule({kKeyword}, {1}, 90, 100, 300),     // R1: conf .9, lift 3.0
      rule({kKeyword}, {1, 2}, 40, 100, 250),  // R2: conf .4, lift 1.6
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_TRUE(survives(out, {kKeyword}, {1}));
  EXPECT_FALSE(survives(out, {kKeyword}, {1, 2}));
}

TEST(PruneCondition2, MiddleGroundKeepsBoth) {
  // lift close (no prune of long) but support of the long rule too low
  // to oust the short one.
  const std::vector<Rule> rules = {
      rule({kKeyword}, {1}, 90, 100, 300),     // lift 3.0, supp .090
      rule({kKeyword}, {1, 2}, 25, 100, 100),  // lift 2.5, supp .025
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_EQ(out.size(), 2u);
}

// ---- Condition 3: cause analysis, nested consequents both holding the
// keyword, shared antecedent.

TEST(PruneCondition3, ConciseConsequentWins) {
  const std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 60, 100, 300),     // lift 2.0
      rule({1}, {2, kKeyword}, 50, 100, 250),  // lift 2.0
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_TRUE(survives(out, {1}, {kKeyword}));
  EXPECT_FALSE(survives(out, {1}, {2, kKeyword}));
}

TEST(PruneCondition3, LongerKeptWhenClearlyStronger) {
  // lift(R2) = 3.2 > 1.5 * lift(R1) = 3.0: no prune from condition 3.
  // (Condition 2 does not apply: keyword not in the antecedent.)
  const std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 60, 100, 300),     // lift 2.0
      rule({1}, {2, kKeyword}, 80, 100, 250),  // lift 3.2
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_EQ(out.size(), 2u);
}

// ---- Condition 4: characteristic analysis, nested antecedents both
// holding the keyword, shared consequent.

TEST(PruneCondition4, ShorterAntecedentGeneralizes) {
  const std::vector<Rule> rules = {
      rule({kKeyword}, {1}, 60, 100, 300),     // lift 2.0
      rule({2, kKeyword}, {1}, 30, 50, 300),   // lift 2.0
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_TRUE(survives(out, {kKeyword}, {1}));
  EXPECT_FALSE(survives(out, {2, kKeyword}, {1}));
}

TEST(PruneCondition4, LongerKeptWhenClearlyStronger) {
  const std::vector<Rule> rules = {
      rule({kKeyword}, {1}, 60, 100, 300),    // lift 2.0
      rule({2, kKeyword}, {1}, 50, 50, 300),  // lift ~3.33 > 1.5 * 2.0
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_EQ(out.size(), 2u);
}

// ---- Cross-cutting behaviour.

TEST(PruneRules, RulesWithoutKeywordPassThrough) {
  const std::vector<Rule> rules = {
      rule({1}, {2}, 60, 100, 300),
      rule({1, 3}, {2}, 30, 50, 300),  // nested, but keyword absent
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_EQ(out.size(), 2u);
}

TEST(PruneRules, OrderIndependence) {
  std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 30, 100, 200),
      rule({1, 2}, {kKeyword}, 25, 50, 200),
      rule({1, 3}, {kKeyword}, 15, 50, 200),
      rule({kKeyword}, {4}, 60, 100, 300),
      rule({kKeyword}, {4, 5}, 50, 100, 250),
      rule({2}, {kKeyword}, 40, 120, 200),
  };
  const auto baseline = prune_rules(rules, kKeyword, PruneParams{});
  std::mt19937 shuffler(123);
  for (int trial = 0; trial < 10; ++trial) {
    std::shuffle(rules.begin(), rules.end(), shuffler);
    const auto out = prune_rules(rules, kKeyword, PruneParams{});
    ASSERT_EQ(out.size(), baseline.size()) << "trial " << trial;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].antecedent, baseline[i].antecedent);
      EXPECT_EQ(out[i].consequent, baseline[i].consequent);
    }
  }
}

// Scaled variant exercising the lookup: four rule families (one per
// condition) built over every non-empty subset of a five-item pool,
// plus keyword-less pass-through rules — ~130 rules. The survivor set
// must not depend on input order, and the probe count must stay within
// the per-rule subset bound, below all-pairs.
TEST(PruneRules, OrderIndependenceAtScaleBucketed) {
  std::mt19937 gen(7);
  auto count_between = [&](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(gen);
  };
  const std::vector<ItemId> pool = {1, 2, 3, 4, 5};
  std::vector<Rule> rules;
  for (std::uint32_t mask = 1; mask < (1u << pool.size()); ++mask) {
    Itemset side;
    for (std::size_t b = 0; b < pool.size(); ++b) {
      if ((mask >> b) & 1) side.push_back(pool[b]);
    }
    Itemset with_kw = side;
    with_kw.push_back(kKeyword);  // pool ids < kKeyword: stays canonical
    const std::uint64_t joint = count_between(10, 50);
    const std::uint64_t sx = count_between(60, 200);
    // Condition 1 family: nested antecedents, shared consequent {K}.
    rules.push_back(rule(side, {kKeyword}, joint, sx, 250));
    // Condition 4 family: nested antecedents holding K, shared {7}.
    rules.push_back(rule(with_kw, {7}, joint, sx, 300));
    // Condition 2 family: shared antecedent {K}, nested consequents.
    rules.push_back(rule({kKeyword}, side, joint, 220, sx));
    // Condition 3 family: shared antecedent {6}, nested consequents
    // holding K.
    rules.push_back(rule({6}, with_kw, joint, 180, sx));
    // Keyword-less pass-through (only for a few masks).
    if (mask % 8 == 0) rules.push_back(rule(side, {8}, joint, sx, 150));
  }

  PruneStats baseline_stats;
  const auto baseline =
      prune_rules(rules, kKeyword, PruneParams{}, &baseline_stats);
  // Each keyword rule probes at most every proper subset of each side.
  std::size_t probe_bound = 0;
  for (const Rule& r : rules) {
    if (contains(r.antecedent, kKeyword) || contains(r.consequent, kKeyword)) {
      probe_bound +=
          (1u << r.antecedent.size()) + (1u << r.consequent.size()) - 2;
    }
  }
  EXPECT_GT(baseline_stats.pair_comparisons, 0u);
  EXPECT_LE(baseline_stats.pair_comparisons, probe_bound);
  // The lookup must examine far fewer pairs than n * (n-1) / 2.
  const std::size_t n = rules.size();
  EXPECT_LT(baseline_stats.pair_comparisons, n * (n - 1) / 2);
  EXPECT_LT(baseline_stats.kept, baseline_stats.input);

  std::mt19937 shuffler(123);
  for (int trial = 0; trial < 10; ++trial) {
    std::shuffle(rules.begin(), rules.end(), shuffler);
    PruneStats stats;
    const auto out = prune_rules(rules, kKeyword, PruneParams{}, &stats);
    ASSERT_EQ(out.size(), baseline.size()) << "trial " << trial;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].antecedent, baseline[i].antecedent);
      EXPECT_EQ(out[i].consequent, baseline[i].consequent);
    }
    // Firing is order-independent, so the attribution counters are too.
    EXPECT_EQ(stats.pruned_by, baseline_stats.pruned_by)
        << "trial " << trial;
  }
}

// Seeded random rule sets over eight items, with up to four items a
// side: many rules nest on one side while sharing the other, some are
// exact duplicates, some never mention the keyword. Both entry points
// must keep exactly the oracle's survivors, in order, with the same
// per-condition firing counts, for every slack setting.
TEST(PruneRules, MatchesAllPairsOracle) {
  constexpr ItemId kItems = 8;
  std::size_t fired = 0;
  for (std::uint32_t seed = 1; seed <= 60; ++seed) {
    std::mt19937 gen(seed);
    auto below = [&](std::uint32_t n) {
      return std::uniform_int_distribution<std::uint32_t>(0, n - 1)(gen);
    };
    const ItemId keyword = below(kItems);
    // A side of 1-4 items outside `taken`, holding `keyword` if asked.
    auto draw_side = [&](const Itemset& taken, bool with_keyword) {
      Itemset side;
      if (with_keyword) side.push_back(keyword);
      const std::size_t want = 1 + below(4);
      while (side.size() < want) {
        const ItemId id = below(kItems);
        if (!contains(taken, id) && std::find(side.begin(), side.end(), id) ==
                                        side.end()) {
          side.push_back(id);
        } else if (taken.size() + side.size() >= kItems) {
          break;
        }
      }
      canonicalize(side);
      return side;
    };
    auto priced = [&](Itemset x, Itemset y) {
      const std::uint64_t sx = 40 + below(8) * 20;
      const std::uint64_t sy = 40 + below(8) * 20;
      const std::uint64_t joint = 10 + below(static_cast<std::uint32_t>(
                                           std::min(sx, sy) - 9));
      return make_rule(std::move(x), std::move(y), joint, sx, sy, kN);
    };

    std::vector<Rule> rules;
    const std::size_t n = 20 + below(100);
    while (rules.size() < n) {
      const std::uint32_t kind = rules.empty() ? 9 : below(10);
      if (kind < 2) {
        rules.push_back(rules[below(static_cast<std::uint32_t>(rules.size()))]);
      } else if (kind < 7) {
        // Nest on one side of an existing rule: add or drop an item.
        const Rule& base =
            rules[below(static_cast<std::uint32_t>(rules.size()))];
        Itemset x = base.antecedent;
        Itemset y = base.consequent;
        Itemset& side = below(2) == 0 ? x : y;
        const ItemId id = below(kItems);
        if (contains(side, id)) {
          if (side.size() > 1 && (id != keyword || below(3) == 0)) {
            side.erase(std::find(side.begin(), side.end(), id));
          }
        } else if (!contains(x, id) && !contains(y, id) && side.size() < 4) {
          side.push_back(id);
          canonicalize(side);
        }
        rules.push_back(priced(std::move(x), std::move(y)));
      } else {
        // Fresh rule: keyword in the antecedent, consequent or neither.
        const std::uint32_t where = below(3);
        Itemset x = draw_side({}, where == 0);
        Itemset y = draw_side(where == 1 ? Itemset{} : x, where == 1);
        if (where == 1) {
          x = draw_side(y, false);
        } else if (where == 2 && (contains(x, keyword) ||
                                  contains(y, keyword))) {
          continue;
        }
        if (x.empty() || y.empty()) continue;
        rules.push_back(priced(std::move(x), std::move(y)));
      }
    }

    for (const double c_lift : {1.0, 1.5, 3.0}) {
      for (const double c_supp : {1.0, 1.5, 3.0}) {
        const PruneParams params{c_lift, c_supp};
        std::array<std::size_t, 4> expected_by{};
        const std::vector<std::size_t> expected =
            prune_all_pairs(rules, keyword, params, expected_by);
        for (const std::size_t f : expected_by) fired += f;
        const std::string label = "seed " + std::to_string(seed) +
                                  " c_lift " + std::to_string(c_lift) +
                                  " c_supp " + std::to_string(c_supp);

        // Index form: survivors in input order.
        RuleLookup lookup(rules);
        std::vector<std::uint32_t> all(rules.size());
        std::iota(all.begin(), all.end(), 0u);
        for (const std::uint32_t i : all) lookup.add(i);
        PruneStats stats;
        const auto kept =
            prune_rules(rules, lookup, all, keyword, params, &stats);
        ASSERT_EQ(std::vector<std::size_t>(kept.begin(), kept.end()),
                  expected)
            << label;
        EXPECT_EQ(stats.pruned_by, expected_by) << label;
        EXPECT_EQ(stats.input, rules.size()) << label;
        EXPECT_EQ(stats.kept, expected.size()) << label;

        // Vector form: the same survivors in sort_rules order.
        std::vector<Rule> expected_rules;
        for (const std::size_t i : expected) {
          expected_rules.push_back(rules[i]);
        }
        sort_rules(expected_rules);
        PruneStats vector_stats;
        const auto out = prune_rules(rules, keyword, params, &vector_stats);
        ASSERT_EQ(out.size(), expected_rules.size()) << label;
        for (std::size_t i = 0; i < out.size(); ++i) {
          EXPECT_EQ(out[i].antecedent, expected_rules[i].antecedent) << label;
          EXPECT_EQ(out[i].consequent, expected_rules[i].consequent) << label;
          EXPECT_EQ(out[i].count, expected_rules[i].count) << label;
        }
        EXPECT_EQ(vector_stats.pruned_by, expected_by) << label;
        EXPECT_EQ(vector_stats.pair_comparisons, stats.pair_comparisons)
            << label;
      }
    }
  }
  // The sets must exercise the conditions, not just pass rules through.
  EXPECT_GT(fired, 1000u);
}

TEST(PruneRules, StatsArePopulated) {
  const std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 30, 100, 200),
      rule({1, 2}, {kKeyword}, 15, 50, 200),
  };
  PruneStats stats;
  const auto out = prune_rules(rules, kKeyword, PruneParams{}, &stats);
  EXPECT_EQ(stats.input, 2u);
  EXPECT_EQ(stats.kept, out.size());
  EXPECT_EQ(stats.kept, 1u);
  EXPECT_GE(stats.pruned_by[0], 1u);  // condition 1 fired
}

TEST(PruneRules, SlackFactorsChangeOutcomes) {
  // lift(R1) = 1.5, lift(R2) = 2.0. With C_lift = 1.5 the short rule
  // covers (2.25 >= 2.0, drop long); with C_lift = 1.0 it does not, and
  // the long one takes over on support.
  const std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 30, 100, 200),    // lift 1.5, supp .030
      rule({1, 2}, {kKeyword}, 20, 50, 200),  // lift 2.0, supp .020
  };
  const auto relaxed = prune_rules(rules, kKeyword, PruneParams{1.5, 1.5});
  EXPECT_TRUE(survives(relaxed, {1}, {kKeyword}));
  EXPECT_FALSE(survives(relaxed, {1, 2}, {kKeyword}));

  const auto strict = prune_rules(rules, kKeyword, PruneParams{1.0, 1.5});
  EXPECT_FALSE(survives(strict, {1}, {kKeyword}));
  EXPECT_TRUE(survives(strict, {1, 2}, {kKeyword}));
}

TEST(PruneParams, Validation) {
  PruneParams bad;
  bad.c_lift = 0.9;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.c_lift = 1.5;
  bad.c_supp = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(FilterKeyword, BySide) {
  const std::vector<Rule> rules = {
      rule({kKeyword}, {1}, 60, 100, 300),
      rule({1}, {kKeyword}, 30, 100, 200),
      rule({1}, {2}, 30, 100, 200),
  };
  EXPECT_EQ(filter_keyword(rules, kKeyword).size(), 2u);
  EXPECT_EQ(
      filter_keyword(rules, kKeyword, KeywordSide::kAntecedent).size(), 1u);
  EXPECT_EQ(
      filter_keyword(rules, kKeyword, KeywordSide::kConsequent).size(), 1u);
}

}  // namespace
}  // namespace gpumine::core
