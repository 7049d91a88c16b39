// Shared types for frequent-itemset mining (paper Sec. III-C).
//
// A frequent itemset is an itemset whose support exceeds a minimum
// threshold; the paper uses min_support = 5% and caps itemset length at 5
// to keep the rule space interpretable (Sec. III-D).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/metrics.hpp"
#include "core/itemset.hpp"

namespace gpumine::core {

struct MiningParams {
  /// Minimum support as a fraction of |D| in (0, 1]. Paper default: 0.05.
  double min_support = 0.05;
  /// Maximum itemset length. Paper default: 5 (Sec. III-D).
  std::size_t max_length = 5;
  /// Worker threads for the mining scheduler (FP-Growth spawns
  /// work-stealing tasks recursively). 0 = hardware concurrency,
  /// 1 = sequential.
  std::size_t num_threads = 1;
  /// FP-Growth spawns a scheduler task for a conditional tree with at
  /// least this many nodes; smaller trees are mined inline. Lower values
  /// expose more parallelism, higher values cut task overhead. Ignored
  /// when num_threads == 1.
  std::size_t spawn_cutoff_nodes = 256;

  /// Converts the fractional threshold into an absolute count over a
  /// database of total weight `db_size`: the smallest count c with
  /// c / db_size >= min_support, and at least 1.
  [[nodiscard]] std::uint64_t min_count(std::uint64_t db_size) const;

  /// Throws std::invalid_argument unless thresholds are in range.
  void validate() const;
};

struct FrequentItemset {
  Itemset items;        // canonical
  std::uint64_t count;  // sigma(items)

  bool operator==(const FrequentItemset&) const = default;
};

/// Observability for the preprocessing front-end (paper Sec. III-E):
/// per-stage wall times and the transaction-deduplication shape. Filled
/// by the analysis workflow / CLI (core itself never runs prep) and
/// rendered as part of `mine --stats` and the perf JSON. All fields are
/// zero until a prep stage has been timed.
struct PrepStageMetrics {
  double csv_seconds = 0.0;      // CSV parse + type inference
  double binning_seconds = 0.0;  // per-feature fit + apply
  double encode_seconds = 0.0;   // one-hot transaction encoding
  double dedup_seconds = 0.0;    // weighted transaction dedup
  std::uint64_t input_transactions = 0;     // rows entering the miner
  std::uint64_t distinct_transactions = 0;  // rows after dedup()
  /// input / distinct; 1.0 = no duplication, 0 until dedup has run.
  double dedup_ratio = 0.0;

  bool operator==(const PrepStageMetrics&) const = default;
};

/// Observability counters for the downstream rule stage — rule
/// generation (Sec. III-B) and keyword pruning (Sec. III-D) — filled by
/// `generate_rules` / `prune_rules` via `analyze_keyword` and rendered
/// as part of `mine --stats` and `--stats-json`. All fields are zero
/// until a rule stage has run; see docs/RULES.md for the schema.
struct RuleStageMetrics {
  std::size_t num_threads = 1;            // rule-generation shard width
  std::uint64_t itemsets_considered = 0;  // itemsets with >= 2 items
  std::uint64_t candidate_rules = 0;      // antecedent/consequent splits
  std::uint64_t rules_generated = 0;      // passed confidence/lift floors
  std::uint64_t rules_kept = 0;           // survivors of Conditions 1-4
  /// Rules removed by pruning condition i (index i-1); a rule pruned by
  /// several conditions counts once per condition that fired.
  std::array<std::uint64_t, 4> pruned_by_condition{0, 0, 0, 0};
  /// Nested-pair candidates the pruner looked up (PruneStats).
  std::uint64_t prune_pair_comparisons = 0;
  double generation_seconds = 0.0;  // generate_rules wall time
  double prune_seconds = 0.0;       // prune_rules wall time

  bool operator==(const RuleStageMetrics&) const = default;
};

/// Observability counters for one FP-Growth run on the work-stealing
/// scheduler. Rendered by `gpumine mine --stats` and `--stats-json`;
/// the scheduler fields stay zero for a serial run.
struct MiningMetrics {
  std::size_t num_workers = 1;        // scheduler width (1 = sequential)
  std::uint64_t tasks_spawned = 0;    // scheduler tasks submitted
  std::uint64_t tasks_stolen = 0;     // tasks executed by a non-owner thread
  std::size_t peak_queue_length = 0;  // max depth of any worker deque
  double wall_seconds = 0.0;          // end-to-end mining wall time
  std::vector<double> worker_busy_seconds;  // per-worker task execution time
  /// Arena traffic of the flat FP-tree layout: fresh bytes drawn from
  /// malloc, bytes served from recycled arenas, and the pool's total
  /// footprint.
  std::uint64_t arena_bytes_allocated = 0;
  std::uint64_t arena_bytes_reused = 0;
  std::size_t peak_arena_bytes = 0;
  /// Max FP-tree nodes resident at once across all live (conditional)
  /// trees of the run, and total child-table slots probed inserting them.
  std::uint64_t peak_tree_nodes = 0;
  std::uint64_t child_probe_count = 0;
  /// Histogram of mining-recursion depth: slot d counts conditional trees
  /// mined at depth d (top-level projections are depth 0). The last slot
  /// aggregates anything deeper.
  std::vector<std::uint64_t> depth_histogram;
  /// Downstream rule-generation/pruning counters; zero until a rule
  /// stage ran over this result (e.g. `mine --keyword`).
  RuleStageMetrics rule_stage;
  /// Upstream preprocessing counters; zero unless the run came through
  /// the analysis workflow / CLI, which time the prep stages.
  PrepStageMetrics prep_stage;
};

/// Each metrics struct's field list, which common/metrics.hpp renders as
/// `--stats` text (render_stats), `--stats-json` (render_json) and the
/// `mine --metrics-out` exposition (render_exposition). A stage block is
/// left out of `--stats` while the stage equals a default-constructed
/// one, i.e. did not run.
void describe(const PrepStageMetrics& metrics, MetricSink& sink);
void describe(const RuleStageMetrics& metrics, MetricSink& sink);
void describe(const MiningMetrics& metrics, MetricSink& sink);

/// Lookup table from itemset to support count (behind SupportIndex).
/// Heterogeneous lookup via span avoids building temporary vectors on
/// the hot rule-generation path.
using SupportMap =
    std::unordered_map<Itemset, std::uint64_t, ItemsetHash, ItemsetEq>;

/// Output of a mining run. `itemsets` is sorted deterministically
/// (by length, then lexicographically by item ids) regardless of the
/// thread count that produced it.
struct MiningResult {
  std::vector<FrequentItemset> itemsets;
  /// |D| as the support denominator: TransactionDb::total_weight() of the
  /// mined database (== its size() when unweighted).
  std::uint64_t db_size = 0;
  MiningMetrics metrics;  // scheduler observability; not part of equality

  /// supp(X) = sigma(X) / |D| for an itemset known to be in the result;
  /// helper for tests and reports.
  [[nodiscard]] double support(const FrequentItemset& fi) const {
    return db_size == 0 ? 0.0
                        : static_cast<double>(fi.count) /
                              static_cast<double>(db_size);
  }
};

/// Sorts `itemsets` into the canonical deterministic order of every
/// mining result (length-major, then lexicographic by ids).
void sort_canonical(std::vector<FrequentItemset>& itemsets);

}  // namespace gpumine::core
