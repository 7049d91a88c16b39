#include "core/negative.hpp"

#include <algorithm>

#include "common/ensure.hpp"
#include "core/support_index.hpp"

namespace gpumine::core {

void NegativeRuleParams::validate() const {
  GPUMINE_CHECK_ARG(min_support >= 0.0 && min_support <= 1.0,
                    "min_support must be in [0, 1]");
  GPUMINE_CHECK_ARG(min_confidence >= 0.0 && min_confidence <= 1.0,
                    "min_confidence must be in [0, 1]");
  GPUMINE_CHECK_ARG(min_lift >= 0.0, "min_lift must be non-negative");
  GPUMINE_CHECK_ARG(mining_min_support >= 0.0 && mining_min_support <= 1.0,
                    "mining_min_support must be in [0, 1]");
}

std::vector<NegativeRule> generate_negative_rules(
    const MiningResult& mined, ItemId keyword,
    const NegativeRuleParams& params) {
  params.validate();
  std::vector<NegativeRule> out;
  if (mined.db_size == 0) return out;
  const SupportIndex supports(mined);
  const Itemset keyword_set{keyword};
  const auto keyword_count = supports.find(keyword_set);
  if (!keyword_count) return out;  // keyword not frequent

  const auto n = static_cast<double>(mined.db_size);
  const double supp_y = static_cast<double>(*keyword_count) / n;
  const double supp_not_y = 1.0 - supp_y;
  if (supp_not_y <= 0.0) return out;

  Itemset excluded = params.excluded_antecedent_items;
  canonicalize(excluded);
  Itemset with_keyword;
  for (const auto& fi : mined.itemsets) {
    if (contains(fi.items, keyword)) continue;
    if (!disjoint(fi.items, excluded)) continue;
    // supp(X ∧ Y): when X ∪ {keyword} is absent from the frequent
    // family the true joint is below the mining floor but unknown.
    // Treating it as 0 would OVERSTATE negative confidence; assume the
    // worst case instead (joint exactly at the floor), which can only
    // understate it.
    with_keyword = set_union(fi.items, keyword_set);
    const auto joint_count = supports.find(with_keyword);
    const double sx = static_cast<double>(fi.count);
    const double joint =
        joint_count != std::nullopt
            ? static_cast<double>(*joint_count)
            : std::min(sx, params.mining_min_support * n);
    const double supp_neg = (sx - joint) / n;
    const double conf_neg = (sx - joint) / sx;
    const double lift_neg = conf_neg / supp_not_y;
    if (supp_neg + 1e-12 < params.min_support) continue;
    if (conf_neg + 1e-12 < params.min_confidence) continue;
    if (lift_neg + 1e-12 < params.min_lift) continue;
    out.push_back({fi.items, keyword, supp_neg, conf_neg, lift_neg});
  }

  std::sort(out.begin(), out.end(),
            [](const NegativeRule& a, const NegativeRule& b) {
              if (a.lift != b.lift) return a.lift > b.lift;
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              return a.antecedent < b.antecedent;
            });
  return out;
}

}  // namespace gpumine::core
