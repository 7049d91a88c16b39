#include "core/pruning.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/ensure.hpp"
#include "common/trace.hpp"

namespace gpumine::core {
namespace {

// FNV-1a over |X|, X and Y, then the murmur3 finalizer so the low bits
// that pick a slot depend on every item.
std::uint64_t key_hash(std::span<const ItemId> x, std::span<const ItemId> y) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = (1469598103934665603ull ^ x.size()) * kPrime;
  for (const ItemId id : x) h = (h ^ id) * kPrime;
  for (const ItemId id : y) h = (h ^ id) * kPrime;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

bool same_items(std::span<const ItemId> a, std::span<const ItemId> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

void PruneParams::validate() const {
  GPUMINE_CHECK_ARG(c_lift >= 1.0, "c_lift must be >= 1");
  GPUMINE_CHECK_ARG(c_supp >= 1.0, "c_supp must be >= 1");
}

RuleLookup::RuleLookup(const std::vector<Rule>& rules)
    : rules_(rules), next_(rules.size(), kNone) {
  GPUMINE_CHECK_ARG(rules.size() < kNone, "too many rules for a RuleLookup");
  // At most half full, so a miss ends after a short run of slots.
  slots_.resize(std::bit_ceil(std::max<std::size_t>(16, 2 * rules.size())));
  mask_ = slots_.size() - 1;
}

void RuleLookup::add(std::uint32_t rule) {
  const Rule& r = rules_[rule];
  Slot& slot = slots_[slot_of(r.antecedent, r.consequent)];
  next_[rule] = slot.head;  // kNone, or the rules with the same sides
  slot = {static_cast<std::uint32_t>(
              key_hash(r.antecedent, r.consequent) >> 32),
          rule};
}

std::uint32_t RuleLookup::find(std::span<const ItemId> antecedent,
                               std::span<const ItemId> consequent) const {
  return slots_[slot_of(antecedent, consequent)].head;
}

std::size_t RuleLookup::slot_of(std::span<const ItemId> antecedent,
                                std::span<const ItemId> consequent) const {
  const std::uint64_t h = key_hash(antecedent, consequent);
  const auto tag = static_cast<std::uint32_t>(h >> 32);
  for (std::size_t s = h & mask_;; s = (s + 1) & mask_) {
    const Slot& slot = slots_[s];
    if (slot.head == kNone) return s;
    if (slot.tag != tag) continue;
    const Rule& held = rules_[slot.head];
    if (same_items(held.antecedent, antecedent) &&
        same_items(held.consequent, consequent)) {
      return s;
    }
  }
}

std::vector<Rule> filter_keyword(const std::vector<Rule>& rules,
                                 ItemId keyword, KeywordSide side) {
  std::vector<Rule> out;
  for (const Rule& r : rules) {
    const Itemset& where =
        side == KeywordSide::kAntecedent ? r.antecedent : r.consequent;
    if (contains(where, keyword)) out.push_back(r);
  }
  return out;
}

std::vector<Rule> filter_keyword(const std::vector<Rule>& rules,
                                 ItemId keyword) {
  std::vector<Rule> out;
  for (const Rule& r : rules) {
    if (contains(r.antecedent, keyword) || contains(r.consequent, keyword)) {
      out.push_back(r);
    }
  }
  return out;
}

std::vector<std::uint32_t> prune_rules(const std::vector<Rule>& rules,
                                       const RuleLookup& lookup,
                                       std::span<const std::uint32_t> keyed,
                                       ItemId keyword,
                                       const PruneParams& params,
                                       PruneStats* stats) {
  GPUMINE_SPAN("rules/prune");
  params.validate();
  const double cl = params.c_lift;
  const double cs = params.c_supp;
  std::array<std::size_t, 4> by{0, 0, 0, 0};
  std::size_t probes = 0;

  // Marks by rule index. Every hit holds the keyword, so every rule
  // marked is one of `keyed`, through which the survivors are read back.
  std::vector<bool> pruned(rules.size(), false);
  auto mark = [&](std::uint32_t rule, std::size_t condition) {
    pruned[rule] = true;
    ++by[condition - 1];
  };

  // Looks up every proper subset S of `nested` (the empty one included),
  // or with `need_keyword` only those holding the keyword, paired with
  // the unchanged `shared` side, and hands each rule found to `apply`.
  Itemset subset;
  auto probe = [&](const Itemset& nested, const Itemset& shared,
                   bool nested_is_antecedent, bool need_keyword,
                   auto&& apply) {
    const std::size_t k = nested.size();
    GPUMINE_ENSURE(k < 32, "rule side too long for mask enumeration");
    std::uint32_t required = 0;  // the keyword's bit, if S must hold it
    if (need_keyword) {
      required = 1u << (std::lower_bound(nested.begin(), nested.end(),
                                         keyword) -
                        nested.begin());
    }
    const std::uint32_t full = (1u << k) - 1;
    for (std::uint32_t mask = 0; mask < full; ++mask) {
      if ((mask & required) != required) continue;
      subset.clear();
      for (std::size_t bit = 0; bit < k; ++bit) {
        if ((mask >> bit) & 1u) subset.push_back(nested[bit]);
      }
      ++probes;
      std::uint32_t i = nested_is_antecedent ? lookup.find(subset, shared)
                                             : lookup.find(shared, subset);
      for (; i != RuleLookup::kNone; i = lookup.next(i)) apply(i);
    }
  };

  for (const std::uint32_t j : keyed) {
    const Rule& b = rules[j];  // the longer rule of every pair it finds
    const bool kw_in_x = contains(b.antecedent, keyword);
    const bool kw_in_y = contains(b.consequent, keyword);
    if (!kw_in_x && !kw_in_y) continue;  // passes through

    // Same consequent, nested antecedents: Conditions 1 and 4.
    probe(b.antecedent, b.consequent, true, !kw_in_y, [&](std::uint32_t i) {
      const Rule& a = rules[i];  // shorter antecedent

      // Condition 1: cause analysis, keyword in the shared consequent.
      if (kw_in_y) {
        if (cl * a.lift >= b.lift) {
          mark(j, 1);  // shorter rule generalizes: drop the longer one
        } else if (cs * b.support >= a.support) {
          mark(i, 1);  // longer rule is stronger and well supported
        }
      }

      // Condition 4: characteristic analysis, keyword in both
      // antecedents.
      if (kw_in_x && contains(a.antecedent, keyword)) {
        if (cl * a.lift >= b.lift) {
          mark(j, 4);  // shorter antecedent generalizes
        }
      }
    });

    // Same antecedent, nested consequents: Conditions 2 and 3.
    probe(b.consequent, b.antecedent, false, !kw_in_x, [&](std::uint32_t i) {
      const Rule& a = rules[i];  // shorter consequent

      // Condition 2: characteristic analysis, keyword in the shared
      // antecedent.
      if (kw_in_x) {
        if (cl * b.lift >= a.lift && cs * b.support >= a.support) {
          mark(i, 2);  // specific consequent is nearly as strong
        } else if (cl * b.lift < a.lift) {
          mark(j, 2);  // shorter rule clearly stronger
        }
      }

      // Condition 3: cause analysis, keyword in both consequents.
      if (kw_in_y && contains(a.consequent, keyword)) {
        if (cl * a.lift >= b.lift) {
          mark(j, 3);  // concise consequent suffices for cause analysis
        }
      }
    });
  }

  std::vector<std::uint32_t> survivors;
  for (const std::uint32_t i : keyed) {
    if (!pruned[i]) survivors.push_back(i);
  }

  if (stats != nullptr) {
    stats->input = keyed.size();
    stats->kept = survivors.size();
    stats->pruned_by = by;
    stats->pair_comparisons = probes;
  }
  return survivors;
}

std::vector<Rule> prune_rules(const std::vector<Rule>& rules, ItemId keyword,
                              const PruneParams& params, PruneStats* stats) {
  RuleLookup lookup(rules);
  std::vector<std::uint32_t> all(rules.size());
  std::iota(all.begin(), all.end(), 0u);
  for (const std::uint32_t i : all) lookup.add(i);
  std::vector<Rule> survivors;
  for (const std::uint32_t i :
       prune_rules(rules, lookup, all, keyword, params, stats)) {
    survivors.push_back(rules[i]);
  }
  sort_rules(survivors);
  return survivors;
}

}  // namespace gpumine::core
