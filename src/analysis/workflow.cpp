#include "analysis/workflow.hpp"

#include <chrono>
#include <utility>

#include "common/ensure.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"

namespace gpumine::analysis {
namespace {

double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

}  // namespace

PreparedTrace prepare(prep::Table table, const WorkflowConfig& config) {
  if (config.require_present.has_value()) {
    const auto& col = table.categorical(*config.require_present);
    std::vector<bool> keep(table.num_rows());
    for (std::size_t r = 0; r < keep.size(); ++r) {
      keep[r] = !col.is_missing(r);
    }
    table = table.filter_rows(keep);
  }

  for (const std::string& name : config.drop_columns) {
    if (table.has_column(name)) table.drop_column(name);
  }

  PreparedTrace out;
  // Binning: fit + apply are independent per column, so they fan out
  // over the pool; column replacement (and the spec list, which keeps
  // config order) stays serial.
  const auto binning_begin = std::chrono::steady_clock::now();
  {
    GPUMINE_SPAN("prep/binning");
    std::vector<const ColumnBinning*> todo;
  for (const ColumnBinning& b : config.binnings) {
    // Skip columns that arrived pre-binned (already categorical): the
    // fit needs numeric values, and passing such a table through is
    // how callers re-run prepare on partially processed traces.
    if (table.has_column(b.column) && table.is_numeric(b.column)) {
      todo.push_back(&b);
    }
  }
    std::vector<std::pair<prep::BinSpec, prep::CategoricalColumn>> fitted(
        todo.size());
    parallel_for(config.prep_threads, todo.size(), [&](std::size_t i) {
      GPUMINE_SPAN("prep/bin_column");
      const prep::NumericColumn& col = table.numeric(todo[i]->column);
      prep::BinSpec spec = prep::fit_bins(col.values, todo[i]->params);
      prep::CategoricalColumn binned = prep::apply_bins(col, spec);
      fitted[i] = {std::move(spec), std::move(binned)};
    });
    for (std::size_t i = 0; i < todo.size(); ++i) {
      table.replace_column(todo[i]->column, std::move(fitted[i].second));
      out.bin_specs.emplace_back(todo[i]->column, std::move(fitted[i].first));
    }
    for (const ColumnGrouping& g : config.groupings) {
      if (!table.has_column(g.column)) continue;
      prep::group_column_by_share(table, g.column, g.params);
    }
    for (const ColumnMerge& m : config.merges) {
      if (!table.has_column(m.column)) continue;
      prep::merge_column_categories(table, m.column, m.mapping, m.fallback);
    }
  }
  out.prep_metrics.binning_seconds = seconds_since(binning_begin);

  const auto encode_begin = std::chrono::steady_clock::now();
  prep::EncodeResult encoded =
      prep::encode(table, config.encoder, config.prep_threads);
  out.prep_metrics.encode_seconds = seconds_since(encode_begin);
  out.db = std::move(encoded.db);
  out.catalog = std::move(encoded.catalog);
  out.dropped_items = std::move(encoded.dropped_items);
  return out;
}

MinedTrace mine(prep::Table table, const WorkflowConfig& config) {
  MinedTrace out;
  out.prepared = prepare(std::move(table), config);
  core::PrepStageMetrics pm = out.prepared.prep_metrics;
  pm.input_transactions = out.prepared.db.size();
  // Mining runs over the weighted deduplicated database; support math
  // uses total_weight(), so the result (itemsets, counts, db_size) is
  // byte-identical to mining the expanded one. `prepared.db` keeps the
  // full row-per-job view for downstream consumers (summaries,
  // classifiers, validation scans).
  const auto dedup_begin = std::chrono::steady_clock::now();
  const core::TransactionDb deduped = out.prepared.db.dedup();
  pm.dedup_seconds = seconds_since(dedup_begin);
  pm.distinct_transactions = deduped.size();
  pm.dedup_ratio = deduped.empty()
                       ? 0.0
                       : static_cast<double>(pm.input_transactions) /
                             static_cast<double>(deduped.size());
  out.mined = core::mine_frequent(deduped, config.mining, config.algorithm);
  out.mined.metrics.prep_stage = pm;
  return out;
}

core::KeywordAnalysis analyze(const MinedTrace& trace,
                              const std::string& keyword_item,
                              const WorkflowConfig& config) {
  const auto keyword = trace.prepared.catalog.find(keyword_item);
  GPUMINE_CHECK_ARG(keyword.has_value(),
                    "keyword item '" + keyword_item +
                        "' not in the catalog (misspelled, or dropped by "
                        "the dominance filter)");
  return core::analyze_keyword(trace.mined, *keyword, config.rules,
                               config.pruning);
}

}  // namespace gpumine::analysis
