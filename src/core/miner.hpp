// Facade over frequent-itemset mining plus the full itemsets -> rules
// -> pruned-rules pipeline of Sec. III.
#pragma once

#include <vector>

#include "core/frequent.hpp"
#include "core/pruning.hpp"
#include "core/rules.hpp"
#include "core/support_index.hpp"
#include "core/transaction_db.hpp"

namespace gpumine::core {

// FP-Growth is the one miner (the paper's choice, Sec. III-C). The enum
// and mine_frequent's third parameter remain because the end-to-end
// benchmark (perf_e2e/) passes WorkflowConfig::algorithm through them.
enum class Algorithm { kFpGrowth };

/// Mines frequent itemsets with FP-Growth (core::mine_fpgrowth).
[[nodiscard]] MiningResult mine_frequent(const TransactionDb& db,
                                         const MiningParams& params,
                                         Algorithm algorithm = Algorithm::kFpGrowth);

/// One keyword analysis = the paper's unit of study: all surviving cause
/// rules (keyword in consequent) and characteristic rules (keyword in
/// antecedent) after Conditions 1-4.
struct KeywordAnalysis {
  ItemId keyword;
  std::vector<Rule> cause;           // "C" rows
  std::vector<Rule> characteristic;  // "A" rows
  PruneStats prune_stats;            // over the combined keyword rule set
  RuleStageMetrics stage;            // generation + pruning observability
};

/// Runs rule generation + keyword filtering + pruning over an existing
/// mining result. Builds a throwaway SupportIndex; prefer the overload
/// below when analyzing several keywords from one mining result.
[[nodiscard]] KeywordAnalysis analyze_keyword(const MiningResult& mined,
                                              ItemId keyword,
                                              const RuleParams& rule_params,
                                              const PruneParams& prune_params);

/// Same, reusing a prebuilt support index (which must have been built
/// from `mined`) — the index is read-only, so one instance serves any
/// number of keyword analyses and rule-generation threads.
[[nodiscard]] KeywordAnalysis analyze_keyword(const MiningResult& mined,
                                              const SupportIndex& index,
                                              ItemId keyword,
                                              const RuleParams& rule_params,
                                              const PruneParams& prune_params);

}  // namespace gpumine::core
