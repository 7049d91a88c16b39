#include "serve/query_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/export.hpp"
#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "core/miner.hpp"
#include "serve_test_util.hpp"
#include "synth/pai.hpp"
#include "synth/philly.hpp"
#include "synth/supercloud.hpp"

namespace gpumine::serve {
namespace {

// The keyword analysis an Answer's survivors spell out: the engine's
// index view, read back as Rule copies.
core::KeywordAnalysis analysis_of(const QueryEngine& engine, core::ItemId id,
                                  const QueryEngine::Answer& answer) {
  core::KeywordAnalysis analysis;
  analysis.keyword = id;
  for (const std::uint32_t i : answer.survivors) {
    const core::Rule& rule = engine.rules().at(i);
    (core::contains(rule.consequent, id) ? analysis.cause
                                         : analysis.characteristic)
        .push_back(rule);
  }
  return analysis;
}

// The engine's contract: query(name) returns exactly what the one-shot
// pipeline (core::analyze_keyword) computes for that keyword — same
// rules, same doubles, same order.
TEST(QueryEngine, MatchesAnalyzeKeywordForEveryItem) {
  const core::RuleSnapshot snapshot = testutil::snapshot_fixture();
  const QueryEngine engine(snapshot);

  for (core::ItemId id = 0; id < snapshot.catalog.size(); ++id) {
    const std::string& name = snapshot.catalog.name(id);
    const QueryEngine::Answer* answer = engine.query(name);
    ASSERT_NE(answer, nullptr) << name;
    const core::KeywordAnalysis got = analysis_of(engine, id, *answer);
    const core::KeywordAnalysis expected = core::analyze_keyword(
        snapshot.result, id, snapshot.rule_params, snapshot.prune_params);

    const auto expect_rules_eq = [&](const std::vector<core::Rule>& a,
                                     const std::vector<core::Rule>& b) {
      ASSERT_EQ(a.size(), b.size()) << name;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].antecedent, b[i].antecedent);
        EXPECT_EQ(a[i].consequent, b[i].consequent);
        EXPECT_EQ(a[i].count, b[i].count);
        EXPECT_EQ(a[i].support, b[i].support);
        EXPECT_EQ(a[i].confidence, b[i].confidence);
        EXPECT_EQ(a[i].lift, b[i].lift);
        EXPECT_EQ(a[i].leverage, b[i].leverage);
        EXPECT_EQ(a[i].conviction, b[i].conviction);
      }
    };
    expect_rules_eq(got.cause, expected.cause);
    expect_rules_eq(got.characteristic, expected.characteristic);
    EXPECT_EQ(answer->prune_stats.input, expected.prune_stats.input);
    EXPECT_EQ(answer->prune_stats.kept, expected.prune_stats.kept);
    EXPECT_EQ(answer->prune_stats.pruned_by, expected.prune_stats.pruned_by);
  }
}

TEST(QueryEngine, JsonIsPreRenderedExportOutput) {
  const core::RuleSnapshot snapshot = testutil::snapshot_fixture();
  const QueryEngine engine(snapshot);
  for (core::ItemId id = 0; id < snapshot.catalog.size(); ++id) {
    const std::string& name = snapshot.catalog.name(id);
    const std::string* json = engine.query_json(name);
    ASSERT_NE(json, nullptr);
    EXPECT_EQ(*json, analysis::rules_to_json(
                         analysis_of(engine, id, *engine.query(name)),
                         engine.catalog()));
  }
}

// Snapshots of the three synthetic traces, mined and generated the way
// ParallelRules.MatchesSerialOn* builds them: every keyword's bytes and
// firing counts must be analyze_keyword's.
void check_engine_matches_analyze_keyword(
    const prep::Table& merged, const analysis::WorkflowConfig& config,
    const char* label) {
  auto prepared = analysis::prepare(merged, config);
  core::MiningParams mining;
  mining.min_support = 0.05;
  mining.max_length = 5;
  core::RuleParams rule_params;
  rule_params.min_lift = 1.2;
  const core::RuleSnapshot snapshot = core::build_rule_snapshot(
      core::mine_fpgrowth(prepared.db, mining), std::move(prepared.catalog),
      rule_params, core::PruneParams{});
  ASSERT_FALSE(snapshot.rules.empty()) << label;
  const QueryEngine engine(snapshot);
  const core::SupportIndex index(snapshot.result);

  std::size_t with_rules = 0;
  for (core::ItemId id = 0; id < snapshot.catalog.size(); ++id) {
    const std::string& name = snapshot.catalog.name(id);
    const core::KeywordAnalysis expected =
        core::analyze_keyword(snapshot.result, index, id,
                              snapshot.rule_params, snapshot.prune_params);
    const QueryEngine::Answer* answer = engine.query(name);
    ASSERT_NE(answer, nullptr) << label << ' ' << name;
    EXPECT_EQ(answer->json,
              analysis::rules_to_json(expected, snapshot.catalog))
        << label << ' ' << name;
    EXPECT_EQ(answer->prune_stats.pruned_by, expected.prune_stats.pruned_by)
        << label << ' ' << name;
    EXPECT_EQ(answer->prune_stats.input, expected.prune_stats.input)
        << label << ' ' << name;
    if (!answer->survivors.empty()) ++with_rules;
  }
  EXPECT_EQ(engine.num_keywords_with_rules(), with_rules) << label;
  EXPECT_GT(with_rules, 0u) << label;
}

TEST(QueryEngine, MatchesAnalyzeKeywordOnTraceShapes) {
  synth::PaiConfig pai;
  pai.num_jobs = 2000;
  check_engine_matches_analyze_keyword(synth::generate_pai(pai).merged(),
                                       analysis::pai_config(), "pai");
  synth::PhillyConfig philly;
  philly.num_jobs = 2000;
  check_engine_matches_analyze_keyword(
      synth::generate_philly(philly).merged(), analysis::philly_config(),
      "philly");
  synth::SuperCloudConfig supercloud;
  supercloud.num_jobs = 2000;
  check_engine_matches_analyze_keyword(
      synth::generate_supercloud(supercloud).merged(),
      analysis::supercloud_config(), "supercloud");
}

TEST(QueryEngine, UnknownKeywordReturnsNull) {
  const QueryEngine engine(testutil::snapshot_fixture());
  EXPECT_EQ(engine.query("no such item"), nullptr);
  EXPECT_EQ(engine.query_json(""), nullptr);
}

TEST(QueryEngine, SupportProbes) {
  const core::RuleSnapshot snapshot = testutil::snapshot_fixture();
  const QueryEngine engine(snapshot);

  // Every stored frequent itemset must be found with its exact count.
  for (const core::FrequentItemset& fi : snapshot.result.itemsets) {
    std::vector<std::string> names;
    for (const core::ItemId id : fi.items) {
      names.push_back(snapshot.catalog.name(id));
    }
    const auto count = engine.support_count(names);
    ASSERT_TRUE(count.has_value());
    EXPECT_EQ(*count, fi.count);
    // Order must not matter: the engine canonicalizes.
    std::reverse(names.begin(), names.end());
    EXPECT_EQ(engine.support_count(names), count);
  }

  EXPECT_FALSE(engine.support_count({"no such item"}).has_value());
  EXPECT_FALSE(engine.support_count({}).has_value());
}

TEST(QueryEngine, ShapeAccessors) {
  const core::RuleSnapshot snapshot = testutil::snapshot_fixture();
  const QueryEngine engine(snapshot);
  EXPECT_EQ(engine.db_size(), snapshot.result.db_size);
  EXPECT_EQ(engine.num_itemsets(), snapshot.result.itemsets.size());
  EXPECT_EQ(engine.num_rules(), snapshot.rules.size());
  EXPECT_GT(engine.num_keywords_with_rules(), 0u);
  EXPECT_LE(engine.num_keywords_with_rules(), snapshot.catalog.size());
  const auto names = engine.keyword_names();
  ASSERT_EQ(names.size(), snapshot.catalog.size());
  for (core::ItemId id = 0; id < snapshot.catalog.size(); ++id) {
    EXPECT_EQ(names[id], snapshot.catalog.name(id));
  }
}

}  // namespace
}  // namespace gpumine::serve
