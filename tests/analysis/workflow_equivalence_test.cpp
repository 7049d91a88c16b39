// End-to-end check against the Apriori oracle: the entire workflow —
// preprocessing, dedup, FP-Growth, rule generation, keyword pruning —
// must render the same rule table as oracle-mined itemsets pushed
// through the same rule stage, on a realistic trace (not just the
// unit-level random databases).
#include <gtest/gtest.h>

#include "analysis/report.hpp"
#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "oracle/apriori.hpp"
#include "oracle/itemsets.hpp"
#include "synth/philly.hpp"

namespace gpumine::analysis {
namespace {

TEST(WorkflowEquivalence, SameRulesAsAprioriOracle) {
  synth::PhillyConfig trace_cfg;
  trace_cfg.num_jobs = 6000;
  const auto trace = synth::generate_philly(trace_cfg);
  const WorkflowConfig config = philly_config();
  RuleTableOptions options;
  options.max_cause = 50;
  options.max_characteristic = 50;

  const MinedTrace mined = mine(trace.merged(), config);
  const std::string workflow = render_rule_table(
      analyze(mined, "Failed", config), mined.prepared.catalog, options);

  MinedTrace oracle;
  oracle.prepared = prepare(trace.merged(), config);
  oracle.mined = core::mine_apriori(oracle.prepared.db, config.mining);
  ASSERT_TRUE(core::same_itemsets(oracle.mined, mined.mined));
  EXPECT_EQ(workflow, render_rule_table(analyze(oracle, "Failed", config),
                                        oracle.prepared.catalog, options));
}

}  // namespace
}  // namespace gpumine::analysis
