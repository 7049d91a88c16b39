// Keyword-centric rule pruning (paper Sec. III-D).
//
// The analyst picks a *keyword* item K (e.g. "SM Util = 0%" or "Failed").
// Rules with K in the consequent support cause analysis; K in the
// antecedent, characteristic analysis. Four redundancy conditions then
// remove rules that a shorter or more informative sibling dominates,
// controlled by the slack factors C_lift and C_supp (both >= 1; paper
// uses 1.5):
//
//  Cond 1 (cause, nested antecedents Xi ⊂ Xj, same consequent Y ∋ K):
//    keep the shorter rule if its lift is within C_lift of the longer
//    one; otherwise drop the shorter rule if the longer one also has
//    support within C_supp.
//  Cond 2 (characteristic, same antecedent X ∋ K, nested consequents
//    Yi ⊂ Yj): prefer the more specific consequent when its lift and
//    support are close; drop it when the shorter rule clearly wins on
//    lift.
//  Cond 3 (cause, same antecedent, nested consequents both containing
//    K): prefer the concise consequent when lifts are close.
//  Cond 4 (characteristic, nested antecedents both containing K, same
//    consequent): prefer the shorter antecedent when lifts are close.
//
// Every condition compares two rules that share one side exactly (the
// consequent for Conds 1/4, the antecedent for Conds 2/3) and nest on
// the other, so the implementation never scans pairs: each keyword rule
// j = Xj => Yj lists its shorter partners directly, by looking up
// (S, Yj) for the proper subsets S of Xj and (Xj, T) for the proper
// subsets T of Yj in an (antecedent, consequent) -> rule index
// (RuleLookup). Only the subsets a condition can use are probed: every
// S when K ∈ Yj (Cond 1) but only those holding K when K ∈ Xj
// (Cond 4), and every T when K ∈ Xj (Cond 2) but only those holding K
// when K ∈ Yj (Cond 3). So every hit holds K, and one lookup over a
// whole rule list serves every keyword. Rules are at most max_length
// items long, so at the paper's length 5 a rule makes at most 16
// probes; PruneStats::pair_comparisons counts them. docs/RULES.md walks
// through the scheme.
//
// Pruning decisions are evaluated against the *input* rule set (a pruned
// rule can still disqualify another), which makes the result independent
// of rule ordering — an invariant the property tests rely on: the
// lookup only decides which pairs are *examined*, never which
// conditions *fire*.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/itemset.hpp"
#include "core/rules.hpp"

namespace gpumine::core {

struct PruneParams {
  double c_lift = 1.5;  // lift slack (>= 1)
  double c_supp = 1.5;  // support slack (>= 1)

  void validate() const;
};

enum class KeywordSide {
  kAntecedent,  // characteristic analysis ("A" rows in the paper tables)
  kConsequent,  // cause analysis ("C" rows)
};

struct PruneStats {
  std::size_t input = 0;
  std::size_t kept = 0;
  /// Rules removed by condition i (index i-1), attributed per *firing*:
  /// a rule dominated by several siblings, or caught by more than one
  /// condition, increments every slot whose condition fired — so the
  /// slots can sum to more than input - kept. `kept` is authoritative.
  std::array<std::size_t, 4> pruned_by{0, 0, 0, 0};
  /// Nested-pair candidates looked up in the RuleLookup (one per probed
  /// subset), the lookup's stand-in for the all-pairs n^2.
  std::size_t pair_comparisons = 0;
};

/// (antecedent, consequent) -> indices of the rules with exactly those
/// sides, over one rule vector that must outlive it. Open addressing;
/// rules sharing both sides are chained, so duplicates are all found.
/// Read-only once filled, so any number of threads can probe it.
class RuleLookup {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// An empty lookup sized for every rule of `rules`; add() fills it.
  explicit RuleLookup(const std::vector<Rule>& rules);

  /// Indexes rules[rule]; each rule is added at most once.
  void add(std::uint32_t rule);

  /// First indexed rule with these sides, or kNone.
  [[nodiscard]] std::uint32_t find(std::span<const ItemId> antecedent,
                                   std::span<const ItemId> consequent) const;

  /// The next indexed rule with the same sides as `rule`, or kNone.
  [[nodiscard]] std::uint32_t next(std::uint32_t rule) const {
    return next_[rule];
  }

 private:
  struct Slot {
    std::uint32_t tag = 0;       // high hash bits, checked before sides
    std::uint32_t head = kNone;  // kNone: empty slot
  };

  // The slot of the rules with these sides, or the empty slot where
  // they would go.
  [[nodiscard]] std::size_t slot_of(std::span<const ItemId> antecedent,
                                    std::span<const ItemId> consequent) const;

  const std::vector<Rule>& rules_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> next_;
  std::size_t mask_ = 0;
};

/// Rules that contain `keyword` on the given side.
[[nodiscard]] std::vector<Rule> filter_keyword(const std::vector<Rule>& rules,
                                               ItemId keyword,
                                               KeywordSide side);

/// Rules that contain `keyword` anywhere.
[[nodiscard]] std::vector<Rule> filter_keyword(const std::vector<Rule>& rules,
                                               ItemId keyword);

/// Applies Conditions 1-4 to the rules `keyed` selects from `rules`.
/// `keyed` is strictly increasing and holds every rule of `rules` that
/// mentions `keyword`; any other rule it holds passes through untouched,
/// since no condition applies. `lookup` indexes at least those keyword
/// rules. Returns the surviving entries of `keyed`, in `keyed` order.
[[nodiscard]] std::vector<std::uint32_t> prune_rules(
    const std::vector<Rule>& rules, const RuleLookup& lookup,
    std::span<const std::uint32_t> keyed, ItemId keyword,
    const PruneParams& params, PruneStats* stats = nullptr);

/// Same over a whole rule list (which should already be restricted to
/// rules mentioning `keyword`; rules not mentioning it pass through).
/// Returns survivors in the deterministic sort_rules order.
[[nodiscard]] std::vector<Rule> prune_rules(const std::vector<Rule>& rules,
                                            ItemId keyword,
                                            const PruneParams& params,
                                            PruneStats* stats = nullptr);

}  // namespace gpumine::core
