// Association rule generation and quality metrics (paper Sec. III-B).
//
// A rule X => Y splits a frequent itemset Z into disjoint antecedent X
// and consequent Y with X ∪ Y = Z. Metrics:
//   support    = sigma(X ∪ Y) / |D|                       (Eq. 2)
//   confidence = sigma(X ∪ Y) / sigma(X)                  (Eq. 3)
//   lift       = confidence / supp(Y)                     (Eq. 4)
// plus two auxiliary measures common in the literature:
//   leverage   = supp(XY) - supp(X)·supp(Y)
//   conviction = (1 - supp(Y)) / (1 - confidence)   (∞ for conf = 1,
//                reported as +inf)
// Because every subset of a frequent itemset is frequent
// (anti-monotonicity), all the sigma lookups hit the support map.
#pragma once

#include <cstdint>
#include <vector>

#include "core/frequent.hpp"
#include "core/itemset.hpp"
#include "core/support_index.hpp"

namespace gpumine::core {

struct Rule {
  Itemset antecedent;   // X, canonical
  Itemset consequent;   // Y, canonical, disjoint from X
  std::uint64_t count;  // sigma(X ∪ Y)
  double support;
  double confidence;
  double lift;
  double leverage;
  double conviction;
};

struct RuleParams {
  /// Keep rules with confidence >= this. Paper applies no confidence
  /// floor (filtering happens via lift), so the default is 0.
  double min_confidence = 0.0;
  /// Keep rules with lift >= this. Paper default: 1.5 (Sec. III-D).
  double min_lift = 1.5;
  /// Worker threads for rule generation: the frequent itemsets are
  /// sharded across the work-stealing pool, each shard enumerates into
  /// its own buffer, and the merged output is re-sorted — byte-identical
  /// for any thread count. 0 = hardware concurrency, 1 = one shard on the
  /// calling thread.
  std::size_t num_threads = 1;

  void validate() const;
};

/// Generates every rule derivable from `mined.itemsets` that passes the
/// thresholds. Output order is deterministic: descending lift, then
/// descending support, then lexicographic (antecedent, consequent) —
/// independent of `params.num_threads`. Builds a throwaway SupportIndex
/// internally; callers generating rules for several keywords from one
/// mining result should build the index once and use the overload below.
[[nodiscard]] std::vector<Rule> generate_rules(const MiningResult& mined,
                                               const RuleParams& params);

/// Same, but reuses a prebuilt `index` (which must have been built from
/// `mined`) and optionally records stage observability into `metrics`
/// (shard width, splits evaluated, wall time).
[[nodiscard]] std::vector<Rule> generate_rules(const MiningResult& mined,
                                               const RuleParams& params,
                                               const SupportIndex& index,
                                               RuleStageMetrics* metrics =
                                                   nullptr);

/// Recomputes all metrics of a rule from raw counts — shared by the
/// generator and by tests that validate metrics against the scan oracle.
[[nodiscard]] Rule make_rule(Itemset antecedent, Itemset consequent,
                             std::uint64_t joint_count,
                             std::uint64_t antecedent_count,
                             std::uint64_t consequent_count,
                             std::uint64_t db_size);

/// The deterministic output ordering used by generate_rules, a total
/// order: descending lift, then descending support, then ascending
/// antecedent, then ascending consequent.
void sort_rules(std::vector<Rule>& rules);

/// True iff `a` sorts strictly before `b` in sort_rules order.
[[nodiscard]] bool rule_before(const Rule& a, const Rule& b);

}  // namespace gpumine::core
