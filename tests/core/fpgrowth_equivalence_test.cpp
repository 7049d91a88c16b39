// Equivalence of the arena-allocated flat FP-tree layout against an
// independent reference. The Apriori oracle (tests/oracle) counts
// candidates level by level and shares no tree code with FP-Growth, so
// identical itemset lists across all three synthetic traces — PAI,
// Philly, SuperCloud — and across 1/2/4/8-thread schedules pin down the
// flat layout's counts end to end. Also asserts the arena observability
// the layout adds.
#include <gtest/gtest.h>

#include <cstddef>

#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "core/fpgrowth.hpp"
#include "oracle/apriori.hpp"
#include "oracle/itemsets.hpp"
#include "synth/pai.hpp"
#include "synth/philly.hpp"
#include "synth/supercloud.hpp"

namespace gpumine::core {
namespace {

// FP-Growth at 1, 2, 4 and 8 threads must reproduce the Apriori oracle
// exactly: every item id and count, in order.
void check_against_apriori(const TransactionDb& db, const char* label) {
  MiningParams base;
  base.min_support = 0.05;
  base.max_length = 5;
  base.num_threads = 1;
  const auto reference = mine_apriori(db, base);
  ASSERT_FALSE(reference.itemsets.empty()) << label;

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    MiningParams params = base;
    params.num_threads = threads;
    EXPECT_TRUE(same_itemsets(mine_fpgrowth(db, params), reference))
        << label << " threads=" << threads;
  }
}

TEST(FpGrowthEquivalence, MatchesAprioriOnPai) {
  synth::PaiConfig config;
  config.num_jobs = 2500;
  const auto prepared = analysis::prepare(synth::generate_pai(config).merged(),
                                          analysis::pai_config());
  check_against_apriori(prepared.db, "pai");
}

TEST(FpGrowthEquivalence, MatchesAprioriOnPhilly) {
  synth::PhillyConfig config;
  config.num_jobs = 2500;
  const auto prepared = analysis::prepare(
      synth::generate_philly(config).merged(), analysis::philly_config());
  check_against_apriori(prepared.db, "philly");
}

TEST(FpGrowthEquivalence, MatchesAprioriOnSupercloud) {
  synth::SuperCloudConfig config;
  config.num_jobs = 2500;
  const auto prepared =
      analysis::prepare(synth::generate_supercloud(config).merged(),
                        analysis::supercloud_config());
  check_against_apriori(prepared.db, "supercloud");
}

TEST(FpGrowthEquivalence, ReportsArenaMetrics) {
  synth::PaiConfig config;
  config.num_jobs = 2500;
  const auto prepared = analysis::prepare(synth::generate_pai(config).merged(),
                                          analysis::pai_config());
  MiningParams params;
  params.num_threads = 1;
  const auto mined = mine_fpgrowth(prepared.db, params);
  EXPECT_GT(mined.metrics.arena_bytes_allocated, 0u);
  EXPECT_GT(mined.metrics.arena_bytes_reused, 0u)
      << "conditional trees must recycle arenas, not allocate fresh ones";
  EXPECT_GE(mined.metrics.peak_arena_bytes,
            mined.metrics.arena_bytes_allocated);
  EXPECT_GT(mined.metrics.peak_tree_nodes, 0u);
  EXPECT_GT(mined.metrics.child_probe_count, 0u);
}

}  // namespace
}  // namespace gpumine::core
