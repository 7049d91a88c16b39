// End-to-end kernel equivalence: the adaptive tid-set machinery —
// representations, diffset switches, dispatch tiers, task spawning —
// must be invisible in mining output. Every engine that sits on the
// kernel layer (Eclat, SON pass 2, the SupportIndex vertical fallback)
// is swept across every supported kernel tier and several thread
// counts on the three studied synthetic traces, and each run must
// reproduce the serial FP-Growth reference exactly: same itemsets,
// same exact weighted counts, same order.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "common/simd.hpp"
#include "core/eclat.hpp"
#include "core/fpgrowth.hpp"
#include "core/partitioned.hpp"
#include "core/support_index.hpp"
#include "mining_test_util.hpp"
#include "synth/pai.hpp"
#include "synth/philly.hpp"
#include "synth/supercloud.hpp"

namespace gpumine::core {
namespace {

/// Scoped kernel-tier override; restores detection on destruction so a
/// failing test cannot leak its tier into the rest of the binary.
class ScopedTier {
 public:
  explicit ScopedTier(KernelTier tier) { force_kernel_tier(tier); }
  ~ScopedTier() { clear_forced_kernel_tier(); }
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;
};

std::vector<KernelTier> supported_tiers() {
  std::vector<KernelTier> tiers;
  for (const KernelTier t :
       {KernelTier::kScalar, KernelTier::kWord, KernelTier::kAvx2}) {
    if (kernel_tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

struct TraceCase {
  std::string name;
  TransactionDb db;
  MiningParams mining;
};

std::vector<TraceCase> studied_traces() {
  std::vector<TraceCase> cases;
  {
    synth::PaiConfig cfg;
    cfg.num_jobs = 1200;
    const auto prepared = analysis::prepare(synth::generate_pai(cfg).merged(),
                                            analysis::pai_config());
    cases.push_back({"PAI", prepared.db, analysis::pai_config().mining});
  }
  {
    synth::PhillyConfig cfg;
    cfg.num_jobs = 1000;
    const auto prepared = analysis::prepare(
        synth::generate_philly(cfg).merged(), analysis::philly_config());
    cases.push_back({"Philly", prepared.db, analysis::philly_config().mining});
  }
  {
    synth::SuperCloudConfig cfg;
    cfg.num_jobs = 1000;
    const auto prepared =
        analysis::prepare(synth::generate_supercloud(cfg).merged(),
                          analysis::supercloud_config());
    cases.push_back(
        {"SuperCloud", prepared.db, analysis::supercloud_config().mining});
  }
  for (auto& c : cases) c.mining.num_threads = 1;
  return cases;
}

TEST(KernelEquivalence, EclatMatchesFpGrowthAcrossTiersAndThreads) {
  for (const TraceCase& tc : studied_traces()) {
    const auto reference = mine_fpgrowth(tc.db, tc.mining);
    ASSERT_FALSE(reference.itemsets.empty()) << tc.name;
    for (const KernelTier tier : supported_tiers()) {
      const ScopedTier guard(tier);
      for (const std::size_t threads : {1u, 2u, 8u}) {
        MiningParams params = tc.mining;
        params.num_threads = threads;
        const auto mined = mine_eclat(tc.db, params);
        SCOPED_TRACE(tc.name + " tier=" + kernel_tier_name(tier) +
                     " threads=" + std::to_string(threads));
        testutil::expect_same(mined.itemsets, reference.itemsets);
        EXPECT_EQ(mined.metrics.kernel_stage.tier, kernel_tier_name(tier));
      }
    }
  }
}

TEST(KernelEquivalence, EclatDedupWeightedMatchesExpanded) {
  // The kernel layer's fused weight accumulation on a deduplicated
  // weighted database must reproduce the expanded database's counts.
  for (const TraceCase& tc : studied_traces()) {
    const TransactionDb dedup = tc.db.dedup();
    ASSERT_LT(dedup.size(), tc.db.size()) << tc.name;
    const auto expanded = mine_eclat(tc.db, tc.mining);
    for (const KernelTier tier : supported_tiers()) {
      const ScopedTier guard(tier);
      const auto weighted = mine_eclat(dedup, tc.mining);
      SCOPED_TRACE(tc.name + " tier=" + kernel_tier_name(tier));
      testutil::expect_same(weighted.itemsets, expanded.itemsets);
    }
  }
}

TEST(KernelEquivalence, SonPass2MatchesDirectAcrossTiers) {
  for (const TraceCase& tc : studied_traces()) {
    const auto reference = mine_fpgrowth(tc.db, tc.mining);
    for (const KernelTier tier : supported_tiers()) {
      const ScopedTier guard(tier);
      for (const std::size_t threads : {1u, 8u}) {
        PartitionedParams params;
        params.mining = tc.mining;
        params.num_partitions = 4;
        params.num_threads = threads;
        const auto son = mine_partitioned(tc.db, params);
        SCOPED_TRACE(tc.name + " tier=" + kernel_tier_name(tier) +
                     " threads=" + std::to_string(threads));
        testutil::expect_same(son.itemsets, reference.itemsets);
      }
    }
  }
}

TEST(KernelEquivalence, SupportIndexVerticalMatchesOracle) {
  for (const TraceCase& tc : studied_traces()) {
    const auto mined = mine_fpgrowth(tc.db, tc.mining);
    const SupportIndex plain(mined);
    const SupportIndex vertical(mined, tc.db);
    EXPECT_FALSE(plain.vertical());
    ASSERT_TRUE(vertical.vertical());

    // Every mined itemset resolves from the map, identically.
    for (const auto& fi : mined.itemsets) {
      EXPECT_EQ(vertical.count(fi.items), fi.count);
    }
    EXPECT_EQ(vertical.count({}), tc.db.total_weight());

    // Below-threshold itemsets (pairs of frequent singletons that did
    // not make the floor) must resolve on demand to the scan oracle's
    // exact count — the map-only index throws on these.
    std::vector<ItemId> singles;
    for (const auto& fi : mined.itemsets) {
      if (fi.items.size() == 1) singles.push_back(fi.items[0]);
    }
    std::size_t misses = 0;
    for (std::size_t i = 0; i < singles.size() && misses < 25; ++i) {
      for (std::size_t j = i + 1; j < singles.size() && misses < 25; ++j) {
        Itemset pair{singles[i], singles[j]};
        canonicalize(pair);
        if (plain.find(pair).has_value()) continue;
        ++misses;
        EXPECT_EQ(vertical.count(pair), tc.db.support_count(pair))
            << tc.name;
        EXPECT_THROW((void)plain.count(pair), std::logic_error);
      }
    }
    EXPECT_GT(misses, 0u) << tc.name;
  }
}

TEST(KernelEquivalence, KernelMetricsSurfaceInEclatStats) {
  const auto tc = studied_traces().front();
  const auto mined = mine_eclat(tc.db, tc.mining);
  const KernelMetrics& k = mined.metrics.kernel_stage;
  ASSERT_NE(k, KernelMetrics{});
  EXPECT_FALSE(k.tier.empty());
  EXPECT_GT(k.sparse_sets_built + k.dense_sets_built, 0u);
  EXPECT_NE(render_json(mined.metrics).find("\"kernel_stage\""),
            std::string::npos);
  EXPECT_NE(render_stats(mined.metrics).find("kernel stage"),
            std::string::npos);
}

}  // namespace
}  // namespace gpumine::core
