// Statistical significance of association rules.
//
// The paper controls spurious rules with a support floor ("a decently
// large number of samples to avoid randomness", Sec. III-C). A sharper
// tool is the one-sided Fisher exact test on the rule's 2x2 contingency
// table: the p-value is the probability of seeing at least sigma(XY)
// co-occurrences under independence given the margins. Small p-values
// certify that a rule's lift is not a sampling artifact; a
// Benjamini-Hochberg pass controls the false-discovery rate across a
// whole rule list.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rules.hpp"

namespace gpumine::core {

/// A rule X => Y's 2x2 contingency table, as counts.
struct ContingencyCounts {
  std::uint64_t antecedent;  // sigma(X)
  std::uint64_t consequent;  // sigma(Y)
  std::uint64_t joint;       // sigma(X ∪ Y)
  std::uint64_t total;       // |D|

  /// Throws std::invalid_argument on inconsistent counts.
  void validate() const;
};

/// One-sided Fisher exact p-value for over-representation: P[joint >=
/// observed] under the hypergeometric null with the table's margins.
/// Exact up to double rounding (log-gamma evaluation), usable for |D| in
/// the millions.
[[nodiscard]] double fisher_pvalue(const ContingencyCounts& counts);

/// log(n choose k) via lgamma.
[[nodiscard]] double log_choose(std::uint64_t n, std::uint64_t k);

struct SignificantRule {
  Rule rule;
  double p_value;
};

/// Annotates rules with Fisher p-values (contingency counts are
/// recovered from the rule's stored metrics and `db_size`) and keeps
/// those passing a Benjamini-Hochberg FDR threshold `q`. Output sorted
/// by ascending p-value; ties broken by the deterministic rule order.
[[nodiscard]] std::vector<SignificantRule> significant_rules(
    const std::vector<Rule>& rules, std::uint64_t db_size, double q = 0.05);

}  // namespace gpumine::core
