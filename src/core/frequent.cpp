#include "core/frequent.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/ensure.hpp"
#include "core/tidset.hpp"

namespace gpumine::core {

std::uint64_t MiningParams::min_count(std::uint64_t db_size) const {
  validate();
  if (min_count_override > 0) return min_count_override;
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

bool PrepStageMetrics::populated() const {
  return csv_seconds > 0.0 || binning_seconds > 0.0 || encode_seconds > 0.0 ||
         dedup_seconds > 0.0 || input_transactions > 0;
}

std::string PrepStageMetrics::summary() const {
  std::ostringstream out;
  out << "prep stage:\n"
      << "  csv parse:      " << csv_seconds * 1e3 << " ms\n"
      << "  binning:        " << binning_seconds * 1e3 << " ms\n"
      << "  encoding:       " << encode_seconds * 1e3 << " ms\n"
      << "  dedup:          " << dedup_seconds * 1e3 << " ms\n"
      << "  transactions:   " << input_transactions << " -> "
      << distinct_transactions << " distinct";
  if (dedup_ratio > 0.0) out << " (ratio " << dedup_ratio << ")";
  out << "\n";
  return out.str();
}

std::string PrepStageMetrics::to_json() const {
  std::ostringstream out;
  out << "{\"csv_seconds\":" << csv_seconds
      << ",\"binning_seconds\":" << binning_seconds
      << ",\"encode_seconds\":" << encode_seconds
      << ",\"dedup_seconds\":" << dedup_seconds
      << ",\"input_transactions\":" << input_transactions
      << ",\"distinct_transactions\":" << distinct_transactions
      << ",\"dedup_ratio\":" << dedup_ratio << "}";
  return out.str();
}

void KernelMetrics::add(const KernelCounters& counters) {
  dense_intersections += counters.dense_intersections;
  sparse_intersections += counters.sparse_intersections;
  mixed_intersections += counters.mixed_intersections;
  diff_operations += counters.diff_operations;
  diffset_switches += counters.diffset_switches;
  dense_sets_built += counters.dense_sets_built;
  sparse_sets_built += counters.sparse_sets_built;
  words_scanned += counters.words_scanned;
  elements_merged += counters.elements_merged;
}

bool KernelMetrics::populated() const {
  return !tier.empty() &&
         (dense_intersections > 0 || sparse_intersections > 0 ||
          mixed_intersections > 0 || diff_operations > 0 ||
          dense_sets_built > 0 || sparse_sets_built > 0);
}

std::string KernelMetrics::summary() const {
  std::ostringstream out;
  out << "kernel stage:\n"
      << "  dispatch tier:  " << tier << "\n"
      << "  intersections:  " << dense_intersections << " dense, "
      << sparse_intersections << " sparse, " << mixed_intersections
      << " mixed\n"
      << "  diffsets:       " << diffset_switches << " class switches, "
      << diff_operations << " differences\n"
      << "  sets built:     " << dense_sets_built << " dense, "
      << sparse_sets_built << " sparse\n"
      << "  kernel traffic: " << words_scanned << " words scanned, "
      << elements_merged << " elements merged\n";
  return out.str();
}

std::string KernelMetrics::to_json() const {
  std::ostringstream out;
  out << "{\"tier\":\"" << tier << "\""
      << ",\"dense_intersections\":" << dense_intersections
      << ",\"sparse_intersections\":" << sparse_intersections
      << ",\"mixed_intersections\":" << mixed_intersections
      << ",\"diff_operations\":" << diff_operations
      << ",\"diffset_switches\":" << diffset_switches
      << ",\"dense_sets_built\":" << dense_sets_built
      << ",\"sparse_sets_built\":" << sparse_sets_built
      << ",\"words_scanned\":" << words_scanned
      << ",\"elements_merged\":" << elements_merged << "}";
  return out.str();
}

bool PartitionMetrics::populated() const {
  return num_partitions > 0 || candidates > 0 || pass1_seconds > 0.0 ||
         pass2_seconds > 0.0;
}

std::string PartitionMetrics::summary() const {
  std::ostringstream out;
  out << "partition stage (SON):\n"
      << "  partitions:     " << num_partitions << " (threads "
      << num_threads << ")\n"
      << "  rows:           " << input_rows << " -> " << distinct_rows
      << " distinct after per-partition dedup\n"
      << "  local itemsets:";
  for (std::uint64_t n : partition_itemsets) out << " " << n;
  out << "\n"
      << "  candidates:     " << candidates << " -> " << verified
      << " verified (false-candidate rate " << false_candidate_rate << ")\n"
      << "  pass 1:         " << pass1_seconds * 1e3 << " ms\n"
      << "  pass 2:         " << pass2_seconds * 1e3 << " ms ("
      << verify_shards << " shards)\n";
  return out.str();
}

std::string PartitionMetrics::to_json() const {
  std::ostringstream out;
  out << "{\"num_partitions\":" << num_partitions
      << ",\"num_threads\":" << num_threads << ",\"partition_itemsets\":[";
  for (std::size_t i = 0; i < partition_itemsets.size(); ++i) {
    if (i > 0) out << ",";
    out << partition_itemsets[i];
  }
  out << "],\"input_rows\":" << input_rows
      << ",\"distinct_rows\":" << distinct_rows
      << ",\"candidates\":" << candidates << ",\"verified\":" << verified
      << ",\"false_candidate_rate\":" << false_candidate_rate
      << ",\"verify_shards\":" << verify_shards
      << ",\"pass1_seconds\":" << pass1_seconds
      << ",\"pass2_seconds\":" << pass2_seconds << "}";
  return out.str();
}

bool RuleStageMetrics::populated() const {
  return candidate_rules > 0 || rules_generated > 0 ||
         generation_seconds > 0.0 || prune_seconds > 0.0;
}

std::string RuleStageMetrics::summary() const {
  std::ostringstream out;
  out << "rule stage:\n"
      << "  threads:        " << num_threads << "\n"
      << "  itemsets >= 2:  " << itemsets_considered << "\n"
      << "  splits tried:   " << candidate_rules << "\n"
      << "  generated:      " << rules_generated << " ("
      << generation_seconds * 1e3 << " ms)\n"
      << "  pruning:        kept " << rules_kept << " ("
      << prune_seconds * 1e3 << " ms)\n"
      << "  pruned by cond: 1:" << pruned_by_condition[0]
      << " 2:" << pruned_by_condition[1] << " 3:" << pruned_by_condition[2]
      << " 4:" << pruned_by_condition[3] << "\n"
      << "  prune buckets:  " << prune_buckets << " (max "
      << prune_max_bucket << ", " << prune_pair_comparisons
      << " pair tests)\n";
  return out.str();
}

std::string RuleStageMetrics::to_json() const {
  std::ostringstream out;
  out << "{\"num_threads\":" << num_threads
      << ",\"itemsets_considered\":" << itemsets_considered
      << ",\"candidate_rules\":" << candidate_rules
      << ",\"rules_generated\":" << rules_generated
      << ",\"rules_kept\":" << rules_kept << ",\"pruned_by_condition\":["
      << pruned_by_condition[0] << "," << pruned_by_condition[1] << ","
      << pruned_by_condition[2] << "," << pruned_by_condition[3] << "]"
      << ",\"prune_buckets\":" << prune_buckets
      << ",\"prune_max_bucket\":" << prune_max_bucket
      << ",\"prune_pair_comparisons\":" << prune_pair_comparisons
      << ",\"generation_seconds\":" << generation_seconds
      << ",\"prune_seconds\":" << prune_seconds << "}";
  return out.str();
}

std::string MiningMetrics::summary() const {
  std::ostringstream out;
  out << "mining stats:\n"
      << "  workers:        " << num_workers << "\n"
      << "  wall time:      " << wall_seconds * 1e3 << " ms\n"
      << "  tasks spawned:  " << tasks_spawned << "\n"
      << "  tasks stolen:   " << tasks_stolen << "\n"
      << "  peak queue len: " << peak_queue_length << "\n";
  if (peak_arena_bytes > 0) {
    out << "  arena bytes:    " << arena_bytes_allocated << " allocated, "
        << arena_bytes_reused << " reused, peak " << peak_arena_bytes << "\n"
        << "  tree nodes:     peak " << peak_tree_nodes << " resident, "
        << child_probe_count << " child probes\n";
  }
  if (!worker_busy_seconds.empty()) {
    const double total = std::accumulate(worker_busy_seconds.begin(),
                                         worker_busy_seconds.end(), 0.0);
    double busiest = 0.0;
    for (double s : worker_busy_seconds) busiest = std::max(busiest, s);
    out << "  busy time:      " << total * 1e3 << " ms total, busiest worker "
        << busiest * 1e3 << " ms\n";
  }
  if (!depth_histogram.empty()) {
    out << "  tree depth:     ";
    for (std::size_t d = 0; d < depth_histogram.size(); ++d) {
      if (d > 0) out << " ";
      out << d << ":" << depth_histogram[d];
    }
    out << "\n";
  }
  if (prep_stage.populated()) out << prep_stage.summary();
  if (kernel_stage.populated()) out << kernel_stage.summary();
  if (partition_stage.populated()) out << partition_stage.summary();
  if (rule_stage.populated()) out << rule_stage.summary();
  return out.str();
}

std::string MiningMetrics::to_json() const {
  std::ostringstream out;
  out << "{\"num_workers\":" << num_workers
      << ",\"tasks_spawned\":" << tasks_spawned
      << ",\"tasks_stolen\":" << tasks_stolen
      << ",\"peak_queue_length\":" << peak_queue_length
      << ",\"arena_bytes_allocated\":" << arena_bytes_allocated
      << ",\"arena_bytes_reused\":" << arena_bytes_reused
      << ",\"peak_arena_bytes\":" << peak_arena_bytes
      << ",\"peak_tree_nodes\":" << peak_tree_nodes
      << ",\"child_probe_count\":" << child_probe_count
      << ",\"wall_seconds\":" << wall_seconds << ",\"worker_busy_seconds\":[";
  for (std::size_t i = 0; i < worker_busy_seconds.size(); ++i) {
    if (i > 0) out << ",";
    out << worker_busy_seconds[i];
  }
  out << "],\"depth_histogram\":[";
  for (std::size_t i = 0; i < depth_histogram.size(); ++i) {
    if (i > 0) out << ",";
    out << depth_histogram[i];
  }
  out << "],\"prep_stage\":" << prep_stage.to_json()
      << ",\"kernel_stage\":" << kernel_stage.to_json()
      << ",\"partition_stage\":" << partition_stage.to_json()
      << ",\"rule_stage\":" << rule_stage.to_json() << "}";
  return out.str();
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

bool same_itemsets(const MiningResult& a, const MiningResult& b) {
  return a.db_size == b.db_size && a.itemsets == b.itemsets;
}

}  // namespace gpumine::core
