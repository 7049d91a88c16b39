// Terminal rendering of analysis results in the paper's presentation
// style: rule tables with "C"/"A" row labels and box-plot summaries
// (Fig. 2).
#pragma once

#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "core/item_catalog.hpp"
#include "core/miner.hpp"
#include "core/rules.hpp"

namespace gpumine::analysis {

struct RuleTableOptions {
  std::size_t max_cause = 8;
  std::size_t max_characteristic = 5;
  bool show_extra_metrics = false;  // add leverage / conviction columns
};

/// Renders one rule as "{A, B} => {C}".
[[nodiscard]] std::string render_rule(const core::Rule& rule,
                                      const core::ItemCatalog& catalog);

/// Paper-style table: C1..Cn cause rows then A1..Am characteristic rows,
/// each with support / confidence / lift.
[[nodiscard]] std::string render_rule_table(
    const core::KeywordAnalysis& analysis, const core::ItemCatalog& catalog,
    const RuleTableOptions& options = {});

/// "min q1 median q3 max" one-liner for Fig. 2-style summaries.
[[nodiscard]] std::string render_box(const BoxStats& stats,
                                     const std::string& label);

}  // namespace gpumine::analysis
