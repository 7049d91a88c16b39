#include "core/significance.hpp"

#include <algorithm>
#include <cmath>

#include "common/ensure.hpp"

namespace gpumine::core {

void ContingencyCounts::validate() const {
  GPUMINE_CHECK_ARG(total > 0, "total must be positive");
  GPUMINE_CHECK_ARG(antecedent <= total && consequent <= total,
                    "marginals cannot exceed the total");
  GPUMINE_CHECK_ARG(joint <= antecedent && joint <= consequent,
                    "joint cannot exceed a marginal");
  // Inclusion-exclusion: |X ∪ Y| = |X| + |Y| - |XY| must fit in |D|.
  GPUMINE_CHECK_ARG(antecedent + consequent - joint <= total,
                    "counts violate inclusion-exclusion");
}

double log_choose(std::uint64_t n, std::uint64_t k) {
  GPUMINE_CHECK_ARG(k <= n, "choose(n, k) needs k <= n");
  return std::lgamma(static_cast<double>(n) + 1.0) -
         std::lgamma(static_cast<double>(k) + 1.0) -
         std::lgamma(static_cast<double>(n - k) + 1.0);
}

double fisher_pvalue(const ContingencyCounts& c) {
  c.validate();
  // Hypergeometric tail: draw |X| transactions (those containing X) out
  // of |D|, of which |Y| are "successes" (contain Y); observed successes
  // = joint. P[K >= joint] summed exactly.
  const std::uint64_t n = c.total;
  const std::uint64_t draws = c.antecedent;
  const std::uint64_t successes = c.consequent;
  const std::uint64_t k_max = std::min(draws, successes);
  const double log_denominator = log_choose(n, draws);

  // First term via lgamma, then the hypergeometric ratio recurrence
  //   term(k+1)/term(k) = (successes-k)(draws-k)
  //                       / ((k+1)(n-successes-draws+k+1)),
  // stopping once the tail is negligible — O(1) lgamma calls per rule.
  double term = std::exp(log_choose(successes, c.joint) +
                         log_choose(n - successes, draws - c.joint) -
                         log_denominator);
  double p = term;
  for (std::uint64_t k = c.joint; k < k_max; ++k) {
    const double numerator = static_cast<double>(successes - k) *
                             static_cast<double>(draws - k);
    const double denominator =
        static_cast<double>(k + 1) *
        static_cast<double>(n - successes - draws + k + 1);
    term *= numerator / denominator;
    p += term;
    if (term < p * 1e-16) break;  // converged
  }
  return std::min(p, 1.0);
}

std::vector<SignificantRule> significant_rules(const std::vector<Rule>& rules,
                                               std::uint64_t db_size,
                                               double q) {
  GPUMINE_CHECK_ARG(db_size > 0, "db_size must be positive");
  GPUMINE_CHECK_ARG(q > 0.0 && q <= 1.0, "q must be in (0, 1]");

  std::vector<SignificantRule> annotated;
  annotated.reserve(rules.size());
  for (const Rule& r : rules) {
    // Recover counts from the stored metrics. support = joint/n,
    // confidence = joint/sigma(X), lift = conf/(sigma(Y)/n).
    const auto n = static_cast<double>(db_size);
    const auto joint = static_cast<std::uint64_t>(
        std::llround(r.support * n));
    const auto sx = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(joint) / r.confidence));
    const auto sy = static_cast<std::uint64_t>(
        std::llround(r.confidence / r.lift * n));
    annotated.push_back(
        {r, fisher_pvalue(ContingencyCounts{sx, sy, joint, db_size})});
  }

  // Benjamini-Hochberg: sort by p, keep the largest prefix with
  // p_(i) <= q * i / m.
  std::sort(annotated.begin(), annotated.end(),
            [](const SignificantRule& a, const SignificantRule& b) {
              if (a.p_value != b.p_value) return a.p_value < b.p_value;
              if (a.rule.lift != b.rule.lift) return a.rule.lift > b.rule.lift;
              if (a.rule.antecedent != b.rule.antecedent) {
                return a.rule.antecedent < b.rule.antecedent;
              }
              return a.rule.consequent < b.rule.consequent;
            });
  const double m = static_cast<double>(annotated.size());
  std::size_t keep = 0;
  for (std::size_t i = 0; i < annotated.size(); ++i) {
    if (annotated[i].p_value <=
        q * static_cast<double>(i + 1) / m) {
      keep = i + 1;
    }
  }
  annotated.resize(keep);
  return annotated;
}

}  // namespace gpumine::core
