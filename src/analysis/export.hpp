// Machine-readable exports of analysis results.
//
// The terminal tables of report.hpp serve the interactive loop; real
// deployments archive rules and feed dashboards. Three formats:
//   * CSV  — one rule per row, ready for spreadsheets / pandas;
//   * JSON — nested structure with items as arrays (hand-rolled writer,
//     RFC 8259 string escaping from common/json.hpp — no third-party
//     dependency);
//   * Markdown — the paper's table layout, ready for reports and PRs.
// All writers are deterministic: same input, byte-identical output.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/item_catalog.hpp"
#include "core/miner.hpp"
#include "core/rules.hpp"

namespace gpumine::analysis {

/// CSV with header:
/// kind,antecedent,consequent,support,confidence,lift,leverage,conviction
/// `kind` is "C" for cause rows and "A" for characteristic rows; items
/// inside a side are joined with " + " (commas would fight the CSV).
[[nodiscard]] std::string rules_to_csv(const core::KeywordAnalysis& analysis,
                                       const core::ItemCatalog& catalog);

/// JSON document:
/// {"keyword": "...", "cause": [{...}], "characteristic": [{...}]}
/// with each rule as {"antecedent": [...], "consequent": [...],
/// "support": s, "confidence": c, "lift": l}.
[[nodiscard]] std::string rules_to_json(const core::KeywordAnalysis& analysis,
                                        const core::ItemCatalog& catalog);

/// The same document for a keyword's survivors given as indices into
/// `rules` (as core::prune_rules returns them): the ones holding the
/// keyword in the consequent are the cause rows, the rest the
/// characteristic rows, each in `survivors` order.
[[nodiscard]] std::string rules_to_json(
    core::ItemId keyword, const std::vector<core::Rule>& rules,
    std::span<const std::uint32_t> survivors,
    const core::ItemCatalog& catalog);

/// GitHub-flavoured Markdown table in the paper's column layout.
[[nodiscard]] std::string rules_to_markdown(
    const core::KeywordAnalysis& analysis, const core::ItemCatalog& catalog,
    std::size_t max_rows_per_side = 10);

}  // namespace gpumine::analysis
