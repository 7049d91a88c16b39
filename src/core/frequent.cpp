#include "core/frequent.hpp"

#include <algorithm>
#include <cmath>

#include "common/ensure.hpp"

namespace gpumine::core {

std::uint64_t MiningParams::min_count(std::uint64_t db_size) const {
  validate();
  const double exact = min_support * static_cast<double>(db_size);
  auto count = static_cast<std::uint64_t>(std::ceil(exact));
  // ceil can land one below the threshold through floating rounding when
  // exact is integral-but-represented-slightly-low; nudge up if needed.
  while (static_cast<double>(count) <
         min_support * static_cast<double>(db_size)) {
    ++count;
  }
  return std::max<std::uint64_t>(count, 1);
}

void MiningParams::validate() const {
  GPUMINE_CHECK_ARG(min_support > 0.0 && min_support <= 1.0,
                    "min_support must be in (0, 1]");
  GPUMINE_CHECK_ARG(max_length >= 1, "max_length must be >= 1");
  GPUMINE_CHECK_ARG(spawn_cutoff_nodes >= 1,
                    "spawn_cutoff_nodes must be >= 1");
}

namespace {

constexpr MetricType kCounter = MetricType::kCounter;
constexpr MetricType kGauge = MetricType::kGauge;

}  // namespace

void describe(const PrepStageMetrics& m, MetricSink& sink) {
  const MetricFamily seconds{"gpumine_prep_stage_seconds", kGauge,
                             "Preprocessing wall time, by stage"};
  const MetricFamily transactions{"gpumine_prep_transactions", kGauge,
                                  "Transactions through prep, by stage"};
  sink.title("prep stage");
  sink.value("csv_seconds", m.csv_seconds, seconds, {{"stage", "csv"}});
  sink.value("binning_seconds", m.binning_seconds, seconds,
             {{"stage", "binning"}});
  sink.value("encode_seconds", m.encode_seconds, seconds,
             {{"stage", "encode"}});
  sink.value("dedup_seconds", m.dedup_seconds, seconds,
             {{"stage", "dedup"}});
  sink.value("input_transactions", m.input_transactions, transactions,
             {{"kind", "input"}});
  sink.value("distinct_transactions", m.distinct_transactions, transactions,
             {{"kind", "distinct"}});
  sink.value("dedup_ratio", m.dedup_ratio,
             {"gpumine_prep_dedup_ratio", kGauge,
              "input / distinct transactions (1.0 = no duplication)"});
}

void describe(const RuleStageMetrics& m, MetricSink& sink) {
  const MetricFamily funnel{"gpumine_rules_funnel_total", kCounter,
                            "Rule-stage funnel, by stage"};
  const MetricFamily seconds{"gpumine_rules_stage_seconds", kGauge,
                             "Rule-stage wall time, by phase"};
  sink.title("rule stage");
  sink.value("num_threads", m.num_threads,
             {"gpumine_rules_threads", kGauge, "Rule-generation shard width"});
  sink.value("itemsets_considered", m.itemsets_considered, funnel,
             {{"stage", "itemsets_considered"}});
  sink.value("candidate_rules", m.candidate_rules, funnel,
             {{"stage", "candidates"}});
  sink.value("rules_generated", m.rules_generated, funnel,
             {{"stage", "generated"}});
  sink.value("rules_kept", m.rules_kept, funnel, {{"stage", "kept"}});
  sink.list("pruned_by_condition", m.pruned_by_condition,
            {"gpumine_rules_pruned_total", kCounter,
             "Rules removed, by interpretability pruning condition"},
            "condition", /*first=*/1);
  sink.value("prune_pair_comparisons", m.prune_pair_comparisons,
             {"gpumine_rules_prune_pair_comparisons_total", kCounter,
              "Nested-pair candidates looked up while pruning"});
  sink.value("generation_seconds", m.generation_seconds, seconds,
             {{"phase", "generation"}});
  sink.value("prune_seconds", m.prune_seconds, seconds,
             {{"phase", "prune"}});
}

void describe(const MiningMetrics& m, MetricSink& sink) {
  const MetricFamily tasks{"gpumine_mining_tasks_total", kCounter,
                           "Scheduler tasks, by disposition"};
  const MetricFamily arena{"gpumine_mining_arena_bytes_total", kCounter,
                           "FP-tree arena traffic, by source"};
  sink.title("mining stats");
  sink.value("num_workers", m.num_workers,
             {"gpumine_mining_workers", kGauge,
              "Scheduler width of the mining run"});
  sink.value("tasks_spawned", m.tasks_spawned, tasks, {{"kind", "spawned"}});
  sink.value("tasks_stolen", m.tasks_stolen, tasks, {{"kind", "stolen"}});
  sink.value("peak_queue_length", m.peak_queue_length,
             {"gpumine_mining_peak_queue_length", kGauge,
              "Deepest worker deque observed during the run"});
  sink.value("arena_bytes_allocated", m.arena_bytes_allocated, arena,
             {{"kind", "allocated"}});
  sink.value("arena_bytes_reused", m.arena_bytes_reused, arena,
             {{"kind", "reused"}});
  sink.value("peak_arena_bytes", m.peak_arena_bytes,
             {"gpumine_mining_peak_arena_bytes", kGauge,
              "Peak bytes resident across pooled arenas"});
  sink.value("peak_tree_nodes", m.peak_tree_nodes,
             {"gpumine_mining_peak_tree_nodes", kGauge,
              "Max FP-tree nodes resident at once"});
  sink.value("child_probe_count", m.child_probe_count,
             {"gpumine_mining_child_probes_total", kCounter,
              "Child-table slots probed inserting tree nodes"});
  sink.value("wall_seconds", m.wall_seconds,
             {"gpumine_mining_wall_seconds", kGauge,
              "End-to-end mining wall time"});
  sink.list("worker_busy_seconds", m.worker_busy_seconds,
            {"gpumine_mining_worker_busy_seconds", kGauge,
             "Per-worker task execution time"},
            "worker");
  sink.list("depth_histogram", m.depth_histogram,
            {"gpumine_mining_recursion_depth_total", kCounter,
             "Conditional trees mined, by recursion depth"},
            "depth");
  sink.nested("prep_stage", m.prep_stage);
  sink.nested("rule_stage", m.rule_stage);
}

void sort_canonical(std::vector<FrequentItemset>& itemsets) {
  std::sort(itemsets.begin(), itemsets.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              if (a.items.size() != b.items.size()) {
                return a.items.size() < b.items.size();
              }
              return a.items < b.items;
            });
}

}  // namespace gpumine::core
