#include "core/miner.hpp"

#include <chrono>

#include "core/fpgrowth.hpp"

namespace gpumine::core {

MiningResult mine_frequent(const TransactionDb& db, const MiningParams& params,
                           Algorithm /*algorithm*/) {
  return mine_fpgrowth(db, params);
}

KeywordAnalysis analyze_keyword(const MiningResult& mined, ItemId keyword,
                                const RuleParams& rule_params,
                                const PruneParams& prune_params) {
  const SupportIndex index(mined);
  return analyze_keyword(mined, index, keyword, rule_params, prune_params);
}

KeywordAnalysis analyze_keyword(const MiningResult& mined,
                                const SupportIndex& index, ItemId keyword,
                                const RuleParams& rule_params,
                                const PruneParams& prune_params) {
  KeywordAnalysis analysis;
  analysis.keyword = keyword;
  const std::vector<Rule> all =
      generate_rules(mined, rule_params, index, &analysis.stage);
  const std::vector<Rule> keyed = filter_keyword(all, keyword);

  const auto prune_begin = std::chrono::steady_clock::now();
  const std::vector<Rule> pruned =
      prune_rules(keyed, keyword, prune_params, &analysis.prune_stats);
  analysis.stage.prune_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    prune_begin)
          .count();
  analysis.stage.rules_kept = analysis.prune_stats.kept;
  for (std::size_t c = 0; c < 4; ++c) {
    analysis.stage.pruned_by_condition[c] = analysis.prune_stats.pruned_by[c];
  }
  analysis.stage.prune_pair_comparisons =
      analysis.prune_stats.pair_comparisons;

  analysis.cause = filter_keyword(pruned, keyword, KeywordSide::kConsequent);
  analysis.characteristic =
      filter_keyword(pruned, keyword, KeywordSide::kAntecedent);
  return analysis;
}

}  // namespace gpumine::core
