#include "analysis/report.hpp"

#include <gtest/gtest.h>

namespace gpumine::analysis {
namespace {

core::ItemCatalog toy_catalog() {
  core::ItemCatalog catalog;
  catalog.intern("SM Util = 0%");   // id 0
  catalog.intern("Failed");         // id 1
  catalog.intern("Tensorflow");     // id 2
  return catalog;
}

core::KeywordAnalysis toy_analysis() {
  core::KeywordAnalysis a;
  a.keyword = 0;
  a.cause.push_back(core::make_rule({1}, {0}, 30, 50, 100, 1000));
  a.characteristic.push_back(core::make_rule({0}, {1, 2}, 20, 100, 40, 1000));
  a.prune_stats.input = 10;
  a.prune_stats.kept = 2;
  a.prune_stats.pruned_by = {3, 2, 2, 1};
  return a;
}

TEST(RenderRule, BracesAndArrow) {
  const auto catalog = toy_catalog();
  const auto rule = core::make_rule({1, 2}, {0}, 10, 20, 100, 1000);
  EXPECT_EQ(render_rule(rule, catalog),
            "{Failed, Tensorflow} => {SM Util = 0%}");
}

TEST(RenderRuleTable, ContainsAllSections) {
  const std::string out = render_rule_table(toy_analysis(), toy_catalog());
  EXPECT_NE(out.find("keyword: SM Util = 0%"), std::string::npos);
  EXPECT_NE(out.find("10 -> 2 after pruning"), std::string::npos);
  EXPECT_NE(out.find("cause analysis"), std::string::npos);
  EXPECT_NE(out.find("characteristic analysis"), std::string::npos);
  EXPECT_NE(out.find("C1"), std::string::npos);
  EXPECT_NE(out.find("A1"), std::string::npos);
  EXPECT_NE(out.find("supp=0.03"), std::string::npos);
  EXPECT_NE(out.find("conf=0.60"), std::string::npos);
}

TEST(RenderRuleTable, ElidesBeyondMaxRows) {
  auto a = toy_analysis();
  for (int i = 0; i < 20; ++i) {
    a.cause.push_back(a.cause.front());
  }
  RuleTableOptions options;
  options.max_cause = 3;
  const std::string out = render_rule_table(a, toy_catalog(), options);
  EXPECT_NE(out.find("C3"), std::string::npos);
  EXPECT_EQ(out.find("C4"), std::string::npos);
  EXPECT_NE(out.find("more rules elided"), std::string::npos);
}

TEST(RenderRuleTable, ExtraMetricsOptIn) {
  RuleTableOptions options;
  options.show_extra_metrics = true;
  const std::string out =
      render_rule_table(toy_analysis(), toy_catalog(), options);
  EXPECT_NE(out.find("lev="), std::string::npos);
  EXPECT_NE(out.find("conv="), std::string::npos);
}

TEST(RenderBox, Format) {
  const BoxStats b{1.0, 2.0, 3.0, 4.0, 5.0, 42};
  const std::string out = render_box(b, "lift");
  EXPECT_EQ(out,
            "lift: min=1.00 q1=2.00 median=3.00 q3=4.00 max=5.00 (n=42)");
}

}  // namespace
}  // namespace gpumine::analysis
