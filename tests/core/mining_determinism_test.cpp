// Thread-count independence of the work-stealing FP-Growth: whatever the
// scheduler width, spawn cutoff, or steal order, the sorted itemset list
// must be identical (same_itemsets: every id and count, in order). Runs
// on encoded synthetic PAI and Philly transactions — the paper's actual
// workload shape, not just unit-level random databases — to guard the
// recursive task spawning.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "core/fpgrowth.hpp"
#include "oracle/itemsets.hpp"
#include "synth/pai.hpp"
#include "synth/philly.hpp"

namespace gpumine::core {
namespace {

TransactionDb encoded_pai() {
  synth::PaiConfig config;
  config.num_jobs = 4000;
  const auto prepared = analysis::prepare(synth::generate_pai(config).merged(),
                                          analysis::pai_config());
  return prepared.db;
}

TransactionDb encoded_philly() {
  synth::PhillyConfig config;
  config.num_jobs = 4000;
  const auto prepared = analysis::prepare(
      synth::generate_philly(config).merged(), analysis::philly_config());
  return prepared.db;
}

void check_thread_counts(const TransactionDb& db, const char* label) {
  MiningParams base;
  base.min_support = 0.05;
  base.max_length = 5;
  base.num_threads = 1;
  const auto reference = mine_fpgrowth(db, base);
  ASSERT_FALSE(reference.itemsets.empty()) << label;

  for (std::size_t threads : {2u, 8u}) {
    MiningParams params = base;
    params.num_threads = threads;
    EXPECT_TRUE(same_itemsets(mine_fpgrowth(db, params), reference))
        << label << " threads=" << threads;
  }

  // An aggressive cutoff maximizes spawning (and thus stealing); the
  // result must still not move.
  MiningParams aggressive = base;
  aggressive.num_threads = 8;
  aggressive.spawn_cutoff_nodes = 2;
  EXPECT_TRUE(same_itemsets(mine_fpgrowth(db, aggressive), reference))
      << label;
}

TEST(MiningDeterminism, FpGrowthThreadCountInvariantOnPai) {
  check_thread_counts(encoded_pai(), "pai");
}

TEST(MiningDeterminism, FpGrowthThreadCountInvariantOnPhilly) {
  check_thread_counts(encoded_philly(), "philly");
}

TEST(MiningDeterminism, ParallelRunReportsSchedulerMetrics) {
  MiningParams params;
  params.num_threads = 4;
  params.spawn_cutoff_nodes = 2;
  const auto result = mine_fpgrowth(encoded_pai(), params);
  EXPECT_EQ(result.metrics.num_workers, 4u);
  EXPECT_GT(result.metrics.tasks_spawned, 0u);
  EXPECT_FALSE(result.metrics.depth_histogram.empty());
  EXPECT_GT(result.metrics.wall_seconds, 0.0);
  EXPECT_EQ(result.metrics.worker_busy_seconds.size(), 4u);
}

// Every run uses the one shared pool, so its scheduler counters must
// describe that run alone: two identical runs in a row report the same
// spawns, and neither reports more busy time than its workers had.
TEST(MiningDeterminism, SchedulerMetricsDescribeOneRun) {
  const TransactionDb db = encoded_pai();
  MiningParams params;
  params.num_threads = 4;
  params.spawn_cutoff_nodes = 2;
  const auto first = mine_fpgrowth(db, params);
  const auto second = mine_fpgrowth(db, params);
  ASSERT_GT(first.metrics.tasks_spawned, 0u);
  EXPECT_EQ(second.metrics.tasks_spawned, first.metrics.tasks_spawned);
  for (const MiningResult* run : {&first, &second}) {
    double busy = 0.0;
    for (const double s : run->metrics.worker_busy_seconds) busy += s;
    EXPECT_LE(busy, run->metrics.wall_seconds *
                        static_cast<double>(run->metrics.num_workers));
  }
}

}  // namespace
}  // namespace gpumine::core
