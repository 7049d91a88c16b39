// Weighted (deduplicated) transactions must be observationally
// equivalent to the expanded database: TransactionDb::dedup() folds
// identical rows into multiplicities, support math runs over
// total_weight(), and FP-Growth (at any thread count), the Apriori
// oracle and rule generation must produce byte-identical results on
// the weighted form.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>

#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "core/fpgrowth.hpp"
#include "core/rules.hpp"
#include "core/support_index.hpp"
#include "oracle/apriori.hpp"
#include "oracle/itemsets.hpp"
#include "synth/pai.hpp"
#include "synth/philly.hpp"
#include "synth/supercloud.hpp"

namespace gpumine::core {
namespace {

// Full-precision rendering of every rule field, so equality means the
// metric doubles are bit-identical, not merely close.
std::string rule_fingerprint(const std::vector<Rule>& rules) {
  std::ostringstream out;
  out << std::setprecision(17);
  for (const Rule& r : rules) {
    for (ItemId id : r.antecedent) out << id << ",";
    out << "=>";
    for (ItemId id : r.consequent) out << id << ",";
    out << "|" << r.count << "|" << r.support << "|" << r.confidence << "|"
        << r.lift << "|" << r.leverage << "|" << r.conviction << "\n";
  }
  return out.str();
}

TEST(WeightedDb, DedupFoldsIdenticalRows) {
  TransactionDb db;
  db.add({1, 2, 3});
  db.add({4, 5});
  db.add({1, 2, 3});
  db.add({1, 2, 3});
  db.add({4, 5});
  EXPECT_FALSE(db.weighted());
  EXPECT_EQ(db.total_weight(), 5u);

  const TransactionDb deduped = db.dedup();
  ASSERT_EQ(deduped.size(), 2u);
  EXPECT_TRUE(deduped.weighted());
  EXPECT_EQ(deduped.total_weight(), 5u);
  // First-occurrence order is preserved.
  EXPECT_EQ(deduped[0].size(), 3u);
  EXPECT_EQ(deduped.weight(0), 3u);
  EXPECT_EQ(deduped[1].size(), 2u);
  EXPECT_EQ(deduped.weight(1), 2u);
}

TEST(WeightedDb, DedupOfWeightedDbSumsWeights) {
  TransactionDb db;
  db.add({1, 2}, 3);
  db.add({3}, 1);
  db.add({1, 2}, 4);
  const TransactionDb deduped = db.dedup();
  ASSERT_EQ(deduped.size(), 2u);
  EXPECT_EQ(deduped.weight(0), 7u);
  EXPECT_EQ(deduped.weight(1), 1u);
  EXPECT_EQ(deduped.total_weight(), db.total_weight());
}

TEST(WeightedDb, SupportCountAndItemCountsAreWeighted) {
  TransactionDb expanded;
  TransactionDb weighted;
  weighted.add({1, 2}, 5);
  weighted.add({2, 3}, 2);
  weighted.add({4}, 1);
  for (int i = 0; i < 5; ++i) expanded.add({1, 2});
  for (int i = 0; i < 2; ++i) expanded.add({2, 3});
  expanded.add({4});

  EXPECT_EQ(weighted.total_weight(), expanded.total_weight());
  const Itemset probes[] = {{1}, {2}, {1, 2}, {2, 3}, {4}, {1, 4}};
  for (const Itemset& probe : probes) {
    EXPECT_EQ(support_count(weighted, probe), support_count(expanded, probe))
        << "probe size " << probe.size();
  }
  EXPECT_EQ(weighted.item_counts(), expanded.item_counts());
}

TEST(WeightedDb, RejectsZeroWeight) {
  TransactionDb db;
  EXPECT_THROW(db.add({1}, 0), std::invalid_argument);
}

// Mining the deduplicated database must reproduce the expanded
// database's itemsets exactly (same_itemsets: every id and count, in
// order, and db_size), for FP-Growth at every thread count and for the
// Apriori oracle, and the derived rules must carry bit-identical
// metrics.
void check_weighted_equivalence(const TransactionDb& db, const char* label) {
  const TransactionDb deduped = db.dedup();
  ASSERT_LT(deduped.size(), db.size())
      << label << ": fixture has no duplicate rows; dedup is a no-op";
  ASSERT_EQ(deduped.total_weight(), db.size());

  MiningParams base;
  base.min_support = 0.05;
  base.max_length = 5;
  base.num_threads = 1;

  const auto reference = mine_fpgrowth(db, base);
  ASSERT_FALSE(reference.itemsets.empty()) << label;

  for (std::size_t threads : {1u, 2u, 8u}) {
    MiningParams params = base;
    params.num_threads = threads;
    EXPECT_TRUE(same_itemsets(mine_fpgrowth(deduped, params), reference))
        << label << " fpgrowth threads=" << threads;
  }
  EXPECT_TRUE(same_itemsets(mine_apriori(deduped, base), reference))
      << label << " apriori";

  // Rule metrics divide by db_size == total_weight, so they must be
  // bit-identical too.
  RuleParams rules;
  rules.min_lift = 1.2;
  const auto weighted_mined = mine_fpgrowth(deduped, base);
  EXPECT_EQ(rule_fingerprint(generate_rules(weighted_mined, rules)),
            rule_fingerprint(generate_rules(reference, rules)))
      << label << " rules";
}

TEST(WeightedEquivalence, PaiTrace) {
  synth::PaiConfig config;
  config.num_jobs = 2000;
  const auto prepared = analysis::prepare(synth::generate_pai(config).merged(),
                                          analysis::pai_config());
  check_weighted_equivalence(prepared.db, "pai");
}

TEST(WeightedEquivalence, PhillyTrace) {
  synth::PhillyConfig config;
  config.num_jobs = 2000;
  const auto prepared = analysis::prepare(
      synth::generate_philly(config).merged(), analysis::philly_config());
  check_weighted_equivalence(prepared.db, "philly");
}

TEST(WeightedEquivalence, SupercloudTrace) {
  synth::SuperCloudConfig config;
  config.num_jobs = 2000;
  const auto prepared =
      analysis::prepare(synth::generate_supercloud(config).merged(),
                        analysis::supercloud_config());
  check_weighted_equivalence(prepared.db, "supercloud");
}

TEST(WeightedEquivalence, SupportIndexMatchesScanOracle) {
  synth::PaiConfig config;
  config.num_jobs = 1000;
  const auto prepared = analysis::prepare(synth::generate_pai(config).merged(),
                                          analysis::pai_config());
  const TransactionDb deduped = prepared.db.dedup();
  MiningParams params;
  params.min_support = 0.05;
  const auto mined = mine_fpgrowth(deduped, params);
  const SupportIndex index(mined);
  for (const FrequentItemset& fi : mined.itemsets) {
    // The linear-scan oracle over the *weighted* database agrees with
    // the mined counts and the index built from them.
    EXPECT_EQ(support_count(deduped, fi.items), fi.count);
    EXPECT_EQ(support_count(prepared.db, fi.items), fi.count);
    const auto via_index = index.find(std::span<const ItemId>(fi.items));
    ASSERT_TRUE(via_index.has_value());
    EXPECT_EQ(*via_index, fi.count);
  }
}

}  // namespace
}  // namespace gpumine::core
