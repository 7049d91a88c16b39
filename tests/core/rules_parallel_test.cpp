// The sharded rule generator must be byte-identical to the serial path:
// sort_rules is a total order (ties broken by the unique antecedent /
// consequent pair), so merging per-shard buffers and re-sorting yields
// the same sequence for any thread count. Checked on all three synthetic
// traces with a field-exact fingerprint (17 significant digits
// round-trips every double).
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>

#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "core/fpgrowth.hpp"
#include "core/rules.hpp"
#include "core/support_index.hpp"
#include "synth/pai.hpp"
#include "synth/philly.hpp"
#include "synth/supercloud.hpp"

namespace gpumine::core {
namespace {

std::string fingerprint(const std::vector<Rule>& rules) {
  std::ostringstream out;
  out.precision(17);
  for (const Rule& r : rules) {
    for (ItemId id : r.antecedent) out << id << ',';
    out << "=>";
    for (ItemId id : r.consequent) out << id << ',';
    out << ';' << r.count << ';' << r.support << ';' << r.confidence << ';'
        << r.lift << ';' << r.leverage << ';' << r.conviction << '\n';
  }
  return out.str();
}

MiningResult mine_trace(const prep::Table& merged,
                        const analysis::WorkflowConfig& config) {
  const auto prepared = analysis::prepare(merged, config);
  MiningParams params;
  params.min_support = 0.05;
  params.max_length = 5;
  return mine_fpgrowth(prepared.db, params);
}

void check_parallel_matches_serial(const MiningResult& mined,
                                   const char* label) {
  const SupportIndex index(mined);
  RuleParams serial;
  serial.min_lift = 1.2;
  serial.num_threads = 1;
  const auto reference = generate_rules(mined, serial, index);
  ASSERT_FALSE(reference.empty()) << label;
  const std::string expected = fingerprint(reference);

  for (std::size_t threads : {2u, 8u}) {
    RuleParams params = serial;
    params.num_threads = threads;
    RuleStageMetrics metrics;
    const auto rules = generate_rules(mined, params, index, &metrics);
    EXPECT_EQ(fingerprint(rules), expected)
        << label << " threads=" << threads;
    EXPECT_EQ(metrics.num_threads, threads) << label;
    EXPECT_EQ(metrics.rules_generated, reference.size()) << label;
    EXPECT_GT(metrics.itemsets_considered, 0u) << label;
    EXPECT_GE(metrics.candidate_rules, metrics.rules_generated) << label;
  }
}

TEST(ParallelRules, MatchesSerialOnPai) {
  synth::PaiConfig config;
  config.num_jobs = 2000;
  check_parallel_matches_serial(
      mine_trace(synth::generate_pai(config).merged(),
                 analysis::pai_config()),
      "pai");
}

TEST(ParallelRules, MatchesSerialOnPhilly) {
  synth::PhillyConfig config;
  config.num_jobs = 2000;
  check_parallel_matches_serial(
      mine_trace(synth::generate_philly(config).merged(),
                 analysis::philly_config()),
      "philly");
}

TEST(ParallelRules, MatchesSerialOnSupercloud) {
  synth::SuperCloudConfig config;
  config.num_jobs = 2000;
  check_parallel_matches_serial(
      mine_trace(synth::generate_supercloud(config).merged(),
                 analysis::supercloud_config()),
      "supercloud");
}

TEST(ParallelRules, CompatOverloadMatchesIndexedOverload) {
  synth::PaiConfig config;
  config.num_jobs = 2000;
  const auto mined = mine_trace(synth::generate_pai(config).merged(),
                                analysis::pai_config());
  RuleParams params;
  params.min_lift = 1.2;
  params.num_threads = 2;
  const SupportIndex index(mined);
  EXPECT_EQ(fingerprint(generate_rules(mined, params)),
            fingerprint(generate_rules(mined, params, index)));
}

TEST(ParallelRules, ZeroThreadsResolvesToHardwareConcurrency) {
  synth::PaiConfig config;
  config.num_jobs = 2000;
  const auto mined = mine_trace(synth::generate_pai(config).merged(),
                                analysis::pai_config());
  const SupportIndex index(mined);
  RuleParams params;
  params.min_lift = 1.2;
  params.num_threads = 0;
  RuleStageMetrics metrics;
  const auto rules = generate_rules(mined, params, index, &metrics);
  EXPECT_GE(metrics.num_threads, 1u);
  EXPECT_EQ(metrics.rules_generated, rules.size());
  EXPECT_GE(metrics.generation_seconds, 0.0);
}

}  // namespace
}  // namespace gpumine::core
