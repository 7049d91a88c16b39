#include "analysis/workflow.hpp"

#include <gtest/gtest.h>

#include "analysis/trace_configs.hpp"

namespace gpumine::analysis {
namespace {

// A tiny hand-built trace: 40 jobs; 20 "debug" jobs with runtime ~1 and
// status Failed, 20 "train" jobs with runtime ~100 and status Passed.
prep::Table toy_table() {
  prep::Table t;
  auto& runtime = t.add_numeric("Runtime");
  auto& status = t.add_categorical("Status");
  auto& user = t.add_categorical("User");
  for (int i = 0; i < 20; ++i) {
    runtime.push(1.0 + i * 0.01);
    status.push("Failed");
    user.push("debugger");
  }
  for (int i = 0; i < 20; ++i) {
    runtime.push(100.0 + i);
    status.push("Passed");
    user.push("user" + std::to_string(i));
  }
  return t;
}

WorkflowConfig toy_config() {
  WorkflowConfig c;
  prep::BinningParams plain;
  plain.zero_mass_threshold = 2.0;
  plain.spike_mass_threshold = 2.0;
  plain.num_bins = 2;
  c.binnings = {{"Runtime", plain}};
  c.encoder.bare_label_columns = {"Status"};
  c.mining.min_support = 0.2;
  return c;
}

TEST(Prepare, BinsGroupsAndEncodes) {
  const auto prepared = prepare(toy_table(), toy_config());
  EXPECT_EQ(prepared.db.size(), 40u);
  EXPECT_TRUE(prepared.catalog.find("Failed").has_value());
  EXPECT_TRUE(prepared.catalog.find("Runtime = Bin1").has_value());
  EXPECT_TRUE(prepared.catalog.find("User = debugger").has_value());
  ASSERT_EQ(prepared.bin_specs.size(), 1u);
  EXPECT_EQ(prepared.bin_specs[0].first, "Runtime");
}

TEST(Prepare, DropColumnsRemovesFeatures) {
  auto cfg = toy_config();
  cfg.drop_columns = {"User", "NotAColumn"};  // unknown names ignored
  const auto prepared = prepare(toy_table(), cfg);
  EXPECT_FALSE(prepared.catalog.find("User = debugger").has_value());
}

TEST(Prepare, RequirePresentFiltersRows) {
  prep::Table t = toy_table();
  auto& model = t.add_categorical("Model");
  for (int i = 0; i < 40; ++i) {
    if (i < 10) {
      model.push("CV");
    } else {
      model.push_missing();
    }
  }
  auto cfg = toy_config();
  cfg.require_present = "Model";
  const auto prepared = prepare(std::move(t), cfg);
  EXPECT_EQ(prepared.db.size(), 10u);
}

TEST(Prepare, MergesApplied) {
  auto cfg = toy_config();
  cfg.merges = {{"User", {{"debugger", "Debug Team"}}, ""}};
  const auto prepared = prepare(toy_table(), cfg);
  EXPECT_TRUE(prepared.catalog.find("User = Debug Team").has_value());
  EXPECT_FALSE(prepared.catalog.find("User = debugger").has_value());
}

TEST(Mine, FindsTheObviousAssociation) {
  const auto mined = mine(toy_table(), toy_config());
  EXPECT_GT(mined.mined.itemsets.size(), 3u);
  const auto analysis = analyze(mined, "Failed", toy_config());
  // {Runtime = Bin1} (and/or user) => {Failed} with perfect confidence.
  ASSERT_FALSE(analysis.cause.empty());
  bool found = false;
  const auto bin1 = mined.prepared.catalog.find("Runtime = Bin1");
  ASSERT_TRUE(bin1.has_value());
  for (const auto& r : analysis.cause) {
    if (r.antecedent == core::Itemset{*bin1}) {
      found = true;
      EXPECT_DOUBLE_EQ(r.confidence, 1.0);
      EXPECT_DOUBLE_EQ(r.lift, 2.0);  // supp(Failed) = 0.5
    }
  }
  EXPECT_TRUE(found);
}

TEST(Analyze, UnknownKeywordThrowsWithHint) {
  const auto mined = mine(toy_table(), toy_config());
  try {
    (void)analyze(mined, "No Such Item", toy_config());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("No Such Item"), std::string::npos);
  }
}

TEST(TraceConfigs, AreInternallyConsistent) {
  for (const auto& cfg : {pai_config(), pai_model_config(),
                          supercloud_config(), philly_config()}) {
    cfg.mining.validate();
    cfg.rules.validate();
    cfg.pruning.validate();
    cfg.encoder.validate();
    EXPECT_DOUBLE_EQ(cfg.mining.min_support, 0.05);   // Sec. III-C
    EXPECT_EQ(cfg.mining.max_length, 5u);             // Sec. III-D
    EXPECT_DOUBLE_EQ(cfg.rules.min_lift, 1.5);        // Sec. III-D
    EXPECT_DOUBLE_EQ(cfg.pruning.c_lift, 1.5);
    EXPECT_DOUBLE_EQ(cfg.pruning.c_supp, 1.5);
    EXPECT_DOUBLE_EQ(cfg.encoder.dominance_threshold, 0.8);  // Sec. III-E
  }
}

TEST(TraceConfigs, ApplyToTablesWithMissingColumnsGracefully) {
  // A user CSV with only a subset of the PAI features must still work.
  prep::Table t;
  auto& runtime = t.add_numeric("Runtime");
  auto& status = t.add_categorical("Status");
  for (int i = 0; i < 50; ++i) {
    runtime.push(i);
    status.push(i % 3 == 0 ? "Failed" : "Terminated");
  }
  auto cfg = pai_config();
  cfg.mining.min_support = 0.1;
  const auto mined = mine(std::move(t), cfg);
  EXPECT_GT(mined.mined.itemsets.size(), 0u);
}

}  // namespace
}  // namespace gpumine::analysis
