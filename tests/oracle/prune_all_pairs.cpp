#include "oracle/prune_all_pairs.hpp"

namespace gpumine::core {
namespace {

bool proper_subset(const Itemset& a, const Itemset& b) {
  return a.size() < b.size() && is_subset(a, b);
}

bool mentions(const Rule& r, ItemId keyword) {
  return contains(r.antecedent, keyword) || contains(r.consequent, keyword);
}

}  // namespace

std::vector<std::size_t> prune_all_pairs(
    const std::vector<Rule>& rules, ItemId keyword, const PruneParams& params,
    std::array<std::size_t, 4>& pruned_by) {
  const double cl = params.c_lift;
  const double cs = params.c_supp;
  std::vector<bool> pruned(rules.size(), false);
  pruned_by = {0, 0, 0, 0};
  auto mark = [&](std::size_t rule, std::size_t condition) {
    pruned[rule] = true;
    ++pruned_by[condition - 1];
  };

  for (std::size_t i = 0; i < rules.size(); ++i) {
    for (std::size_t j = 0; j < rules.size(); ++j) {
      const Rule& a = rules[i];  // the shorter rule of the pair
      const Rule& b = rules[j];  // the longer rule of the pair
      if (i == j || !mentions(a, keyword) || !mentions(b, keyword)) continue;

      if (a.consequent == b.consequent &&
          proper_subset(a.antecedent, b.antecedent)) {
        // Condition 1: cause analysis, keyword in the shared consequent.
        if (contains(b.consequent, keyword)) {
          if (cl * a.lift >= b.lift) {
            mark(j, 1);
          } else if (cs * b.support >= a.support) {
            mark(i, 1);
          }
        }
        // Condition 4: keyword in both antecedents.
        if (contains(a.antecedent, keyword) &&
            contains(b.antecedent, keyword) && cl * a.lift >= b.lift) {
          mark(j, 4);
        }
      }

      if (a.antecedent == b.antecedent &&
          proper_subset(a.consequent, b.consequent)) {
        // Condition 2: characteristic analysis, keyword in the shared
        // antecedent.
        if (contains(b.antecedent, keyword)) {
          if (cl * b.lift >= a.lift && cs * b.support >= a.support) {
            mark(i, 2);
          } else if (cl * b.lift < a.lift) {
            mark(j, 2);
          }
        }
        // Condition 3: keyword in both consequents.
        if (contains(a.consequent, keyword) &&
            contains(b.consequent, keyword) && cl * a.lift >= b.lift) {
          mark(j, 3);
        }
      }
    }
  }

  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (!pruned[i]) survivors.push_back(i);
  }
  return survivors;
}

}  // namespace gpumine::core
