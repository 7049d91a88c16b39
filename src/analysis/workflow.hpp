// The end-to-end interpretable analysis workflow of Sec. III:
//
//   raw merged table
//     -> per-column discretization (binning / share grouping / merges)
//     -> one-hot transaction encoding with dominance drop
//     -> FP-Growth frequent itemsets (min support, max length)
//     -> rule generation (min lift)
//     -> keyword filtering + Conditions 1-4 pruning
//     -> cause ("C") and characteristic ("A") rule lists
//
// A WorkflowConfig captures every knob the paper exposes; the canonical
// per-trace configurations live in trace_configs.hpp.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/miner.hpp"
#include "prep/aggregate.hpp"
#include "prep/binning.hpp"
#include "prep/encoder.hpp"
#include "prep/table.hpp"

namespace gpumine::analysis {

struct ColumnBinning {
  std::string column;
  prep::BinningParams params;
};

struct ColumnGrouping {
  std::string column;
  prep::ShareGroupingParams params;
};

struct ColumnMerge {
  std::string column;
  std::unordered_map<std::string, std::string> mapping;
  std::string fallback;  // "" = keep unmapped labels
};

struct WorkflowConfig {
  std::vector<ColumnBinning> binnings;
  std::vector<ColumnGrouping> groupings;
  std::vector<ColumnMerge> merges;
  /// Columns removed before encoding (identifiers, unused features).
  std::vector<std::string> drop_columns;
  /// Rows removed before anything else: keep only rows where `column`
  /// is non-missing (the paper's NaN-model filtering for Table VIII).
  std::optional<std::string> require_present;

  prep::EncoderParams encoder{};
  core::MiningParams mining{};       // min support 5%, max length 5
  core::RuleParams rules{};          // min lift 1.5
  core::PruneParams pruning{};       // C_lift = C_supp = 1.5
  core::Algorithm algorithm = core::Algorithm::kFpGrowth;
  /// Worker threads for the preprocessing stages (per-column binning,
  /// encoder passes). 1 = serial, 0 = hardware concurrency.
  std::size_t prep_threads = 1;
};

/// The preprocessed mining database plus everything needed to interpret
/// and re-derive results.
struct PreparedTrace {
  core::TransactionDb db;
  core::ItemCatalog catalog;
  std::vector<std::string> dropped_items;      // dominance casualties
  std::vector<std::pair<std::string, prep::BinSpec>> bin_specs;
  /// Stage timings recorded while preparing (binning/encoding; the CLI
  /// adds CSV time, mine() adds dedup). Copied into the mining metrics.
  core::PrepStageMetrics prep_metrics;
};

/// Runs the preprocessing half of the workflow (Sec. III-E).
[[nodiscard]] PreparedTrace prepare(prep::Table table,
                                    const WorkflowConfig& config);

struct MinedTrace {
  PreparedTrace prepared;
  core::MiningResult mined;
};

/// prepare + frequent-itemset mining (Sec. III-C). Mining runs over the
/// deduplicated database (TransactionDb::dedup), which yields the same
/// itemsets, counts and db_size as the expanded one.
[[nodiscard]] MinedTrace mine(prep::Table table, const WorkflowConfig& config);

/// Keyword analysis over a mined trace; `keyword_item` is the rendered
/// item name, e.g. "SM Util = 0%" or "Failed". Throws
/// std::invalid_argument when the item does not exist in the catalog
/// (wrong name, or dropped by the dominance filter).
[[nodiscard]] core::KeywordAnalysis analyze(const MinedTrace& trace,
                                            const std::string& keyword_item,
                                            const WorkflowConfig& config);

}  // namespace gpumine::analysis
