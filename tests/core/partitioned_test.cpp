#include "core/partitioned.hpp"

#include <gtest/gtest.h>

#include <string>

#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "core/fpgrowth.hpp"
#include "core/support_index.hpp"
#include "mining_test_util.hpp"
#include "synth/pai.hpp"
#include "synth/philly.hpp"
#include "synth/supercloud.hpp"

namespace gpumine::core {
namespace {

using testutil::expect_same;

class PartitionedSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(PartitionedSweep, MatchesSingleMachineExactly) {
  const auto [seed, partitions] = GetParam();
  const auto db = testutil::random_db(seed, /*num_txns=*/200,
                                      /*num_items=*/11);
  MiningParams mining;
  mining.min_support = 0.08;
  PartitionedParams params;
  params.mining = mining;
  params.num_partitions = partitions;
  params.num_threads = 2;
  const auto exact = mine_fpgrowth(db, mining);
  const auto son = mine_partitioned(db, params);
  expect_same(son.itemsets, exact.itemsets);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPartitions, PartitionedSweep,
    ::testing::Combine(::testing::Values(1u, 5u, 9u),
                       ::testing::Values(1u, 2u, 4u, 7u)),
    [](const auto& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) + "_p" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(Partitioned, MorePartitionsThanTransactions) {
  const auto db = testutil::make_db({{0, 1}, {0}, {1}});
  PartitionedParams params;
  params.mining.min_support = 0.3;
  params.num_partitions = 10;  // clamped to |D|
  const auto result = mine_partitioned(db, params);
  expect_same(result.itemsets, mine_fpgrowth(db, params.mining).itemsets);
}

TEST(Partitioned, EmptyDatabase) {
  TransactionDb db;
  PartitionedParams params;
  EXPECT_TRUE(mine_partitioned(db, params).itemsets.empty());
}

TEST(Partitioned, SkewedPartitionContentStillExact) {
  // First half of the database is all {0,1}, second half all {2,3}:
  // locally-frequent itemsets differ wildly per partition, the global
  // verification pass must reconcile them.
  TransactionDb db;
  for (int i = 0; i < 50; ++i) db.add({0, 1});
  for (int i = 0; i < 50; ++i) db.add({2, 3});
  PartitionedParams params;
  params.mining.min_support = 0.4;
  params.num_partitions = 2;
  const auto result = mine_partitioned(db, params);
  expect_same(result.itemsets, mine_fpgrowth(db, params.mining).itemsets);
  // {0,1} and {2,3} are both globally frequent at 50%.
  const SupportIndex index(result);
  EXPECT_TRUE(index.find(Itemset{0, 1}).has_value());
  EXPECT_TRUE(index.find(Itemset{2, 3}).has_value());
}

TEST(Partitioned, Validation) {
  PartitionedParams bad;
  bad.num_partitions = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(Partitioned, DedupToggleDoesNotChangeResults) {
  const auto db = testutil::random_db(/*seed=*/3, /*num_txns=*/300,
                                      /*num_items=*/6);  // heavy duplication
  PartitionedParams params;
  params.mining.min_support = 0.1;
  params.num_partitions = 4;
  const auto deduped = mine_partitioned(db, params);
  params.dedup_partitions = false;
  const auto raw = mine_partitioned(db, params);
  expect_same(deduped.itemsets, raw.itemsets);
  // With dedup off, the pass-2 scan runs over the raw rows.
  EXPECT_EQ(raw.metrics.partition_stage.distinct_rows, db.size());
  EXPECT_LT(deduped.metrics.partition_stage.distinct_rows, db.size());
}

TEST(Partitioned, PartitionMetricsPopulated) {
  const auto db = testutil::random_db(/*seed=*/1, /*num_txns=*/200,
                                      /*num_items=*/11);
  PartitionedParams params;
  params.mining.min_support = 0.08;
  params.num_partitions = 4;
  params.num_threads = 2;
  const auto result = mine_partitioned(db, params);
  const PartitionMetrics& stage = result.metrics.partition_stage;
  ASSERT_NE(stage, PartitionMetrics{});
  EXPECT_EQ(stage.num_partitions, 4u);
  EXPECT_EQ(stage.partition_itemsets.size(), 4u);
  EXPECT_EQ(stage.input_rows, db.size());
  EXPECT_LE(stage.distinct_rows, stage.input_rows);
  EXPECT_EQ(stage.verified, result.itemsets.size());
  EXPECT_GE(stage.candidates, stage.verified);
  EXPECT_GE(stage.false_candidate_rate, 0.0);
  EXPECT_LE(stage.false_candidate_rate, 1.0);
  EXPECT_GE(stage.verify_shards, 1u);
  // The stage renders into the stats summary and the metrics JSON.
  EXPECT_NE(render_stats(result.metrics).find("partition stage"),
            std::string::npos);
  EXPECT_NE(render_json(result.metrics).find("\"partition_stage\""),
            std::string::npos);
  // Direct FP-Growth leaves the block at its defaults (and unrendered).
  const auto direct = mine_fpgrowth(db, params.mining);
  EXPECT_EQ(direct.metrics.partition_stage, PartitionMetrics{});
  EXPECT_EQ(render_stats(direct.metrics).find("partition stage"),
            std::string::npos);
}

// --- SON == direct FP-Growth, byte for byte, on the synthetic traces ---
//
// same_itemsets compares every item id and support count, in order, and
// db_size. Sweeps partitions x threads per the paper-scale traces (PAI,
// Philly, SuperCloud synth generators through their canonical prep
// configs).

void check_son_equivalence(const TransactionDb& db, const char* label) {
  MiningParams mining;
  mining.min_support = 0.05;
  mining.max_length = 5;
  const auto reference = mine_fpgrowth(db, mining);
  ASSERT_FALSE(reference.itemsets.empty()) << label;

  for (const std::size_t partitions : {1u, 4u, 16u}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      PartitionedParams params;
      params.mining = mining;
      params.num_partitions = partitions;
      params.num_threads = threads;
      const auto son = mine_partitioned(db, params);
      EXPECT_TRUE(same_itemsets(son, reference))
          << label << " partitions=" << partitions << " threads=" << threads;
    }
  }
}

TEST(PartitionedEquivalence, MatchesFpGrowthOnPai) {
  synth::PaiConfig config;
  config.num_jobs = 2000;
  const auto prepared = analysis::prepare(synth::generate_pai(config).merged(),
                                          analysis::pai_config());
  check_son_equivalence(prepared.db, "pai");
}

TEST(PartitionedEquivalence, MatchesFpGrowthOnPhilly) {
  synth::PhillyConfig config;
  config.num_jobs = 2000;
  const auto prepared = analysis::prepare(
      synth::generate_philly(config).merged(), analysis::philly_config());
  check_son_equivalence(prepared.db, "philly");
}

TEST(PartitionedEquivalence, MatchesFpGrowthOnSuperCloud) {
  synth::SuperCloudConfig config;
  config.num_jobs = 2000;
  const auto prepared =
      analysis::prepare(synth::generate_supercloud(config).merged(),
                        analysis::supercloud_config());
  check_son_equivalence(prepared.db, "supercloud");
}

}  // namespace
}  // namespace gpumine::core
