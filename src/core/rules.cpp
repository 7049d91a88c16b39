#include "core/rules.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>

#include "common/ensure.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"

namespace gpumine::core {
namespace {

// Per-shard enumeration output. Shards are merged in shard order and
// re-sorted, so none of this affects the final (total) rule ordering.
struct ShardResult {
  std::vector<Rule> rules;
  std::uint64_t itemsets_considered = 0;
  std::uint64_t candidate_rules = 0;
};

// Enumerates every proper non-empty subset of `fi` as an antecedent,
// appending the rules that pass the thresholds. `antecedent` and
// `consequent` are caller-owned scratch buffers reused across itemsets.
void enumerate_itemset(const FrequentItemset& fi, const SupportIndex& index,
                       const RuleParams& params, std::uint64_t db_size,
                       Itemset& antecedent, Itemset& consequent,
                       ShardResult& out) {
  const std::size_t k = fi.items.size();
  if (k < 2) return;
  GPUMINE_ENSURE(k < 64, "itemset too long for mask enumeration");
  ++out.itemsets_considered;
  const std::uint64_t full = (1ull << k) - 1;
  for (std::uint64_t mask = 1; mask < full; ++mask) {
    antecedent.clear();
    consequent.clear();
    for (std::size_t bit = 0; bit < k; ++bit) {
      ((mask >> bit) & 1 ? antecedent : consequent).push_back(fi.items[bit]);
    }
    ++out.candidate_rules;
    const auto a = index.find(std::span<const ItemId>(antecedent));
    const auto c = index.find(std::span<const ItemId>(consequent));
    GPUMINE_ENSURE(a.has_value() && c.has_value(),
                   "subset of a frequent itemset missing from support index");
    Rule rule = make_rule(antecedent, consequent, fi.count, *a, *c, db_size);
    if (rule.confidence + 1e-12 >= params.min_confidence &&
        rule.lift + 1e-12 >= params.min_lift) {
      out.rules.push_back(std::move(rule));
    }
  }
}

}  // namespace

void RuleParams::validate() const {
  GPUMINE_CHECK_ARG(min_confidence >= 0.0 && min_confidence <= 1.0,
                    "min_confidence must be in [0, 1]");
  GPUMINE_CHECK_ARG(min_lift >= 0.0, "min_lift must be non-negative");
}

Rule make_rule(Itemset antecedent, Itemset consequent,
               std::uint64_t joint_count, std::uint64_t antecedent_count,
               std::uint64_t consequent_count, std::uint64_t db_size) {
  GPUMINE_CHECK_ARG(db_size > 0, "db_size must be positive");
  GPUMINE_CHECK_ARG(antecedent_count >= joint_count &&
                        consequent_count >= joint_count,
                    "marginal counts cannot be below the joint count");
  GPUMINE_CHECK_ARG(!antecedent.empty() && !consequent.empty(),
                    "antecedent and consequent must be non-empty");
  GPUMINE_CHECK_ARG(disjoint(antecedent, consequent),
                    "antecedent and consequent must be disjoint");

  const auto n = static_cast<double>(db_size);
  const double supp_xy = static_cast<double>(joint_count) / n;
  const double supp_x = static_cast<double>(antecedent_count) / n;
  const double supp_y = static_cast<double>(consequent_count) / n;
  const double conf = supp_x > 0.0 ? supp_xy / supp_x : 0.0;
  const double lift = supp_y > 0.0 ? conf / supp_y : 0.0;
  const double leverage = supp_xy - supp_x * supp_y;
  const double conviction =
      conf >= 1.0 ? std::numeric_limits<double>::infinity()
                  : (1.0 - supp_y) / (1.0 - conf);

  return Rule{std::move(antecedent), std::move(consequent), joint_count,
              supp_xy,               conf,                  lift,
              leverage,              conviction};
}

bool rule_before(const Rule& a, const Rule& b) {
  if (a.lift != b.lift) return a.lift > b.lift;
  if (a.support != b.support) return a.support > b.support;
  if (a.antecedent != b.antecedent) return a.antecedent < b.antecedent;
  return a.consequent < b.consequent;
}

void sort_rules(std::vector<Rule>& rules) {
  std::sort(rules.begin(), rules.end(), rule_before);
}

std::vector<Rule> generate_rules(const MiningResult& mined,
                                 const RuleParams& params,
                                 const SupportIndex& index,
                                 RuleStageMetrics* metrics) {
  GPUMINE_SPAN("rules/generate");
  params.validate();
  const auto begin = std::chrono::steady_clock::now();
  const std::size_t width = pool_width(params.num_threads);

  // Contiguous shards, several per worker: itemsets are sorted by length,
  // so the expensive 2^k enumerations cluster at the tail — over-
  // decomposition lets the work-stealing pool rebalance them.
  const std::size_t num_shards =
      mined.db_size > 0 ? parallel_chunks(width, mined.itemsets.size()) : 0;
  std::vector<ShardResult> shards(num_shards);
  parallel_for(width, num_shards, [&](std::size_t s) {
    GPUMINE_SPAN("rules/shard");
    const std::size_t lo = mined.itemsets.size() * s / num_shards;
    const std::size_t hi = mined.itemsets.size() * (s + 1) / num_shards;
    Itemset antecedent;
    Itemset consequent;
    for (std::size_t i = lo; i < hi; ++i) {
      enumerate_itemset(mined.itemsets[i], index, params, mined.db_size,
                        antecedent, consequent, shards[s]);
    }
  });
  std::vector<Rule> rules;
  std::uint64_t itemsets_considered = 0;
  std::uint64_t candidates = 0;
  std::size_t total = 0;
  for (const ShardResult& s : shards) total += s.rules.size();
  rules.reserve(total);
  for (ShardResult& s : shards) {
    itemsets_considered += s.itemsets_considered;
    candidates += s.candidate_rules;
    std::move(s.rules.begin(), s.rules.end(), std::back_inserter(rules));
  }
  // sort_rules is a total order (ties broken by the unique
  // antecedent/consequent pair), so the merged output is byte-identical
  // for any shard decomposition.
  sort_rules(rules);

  if (metrics != nullptr) {
    metrics->num_threads = width;
    metrics->itemsets_considered = itemsets_considered;
    metrics->candidate_rules = candidates;
    metrics->rules_generated = rules.size();
    metrics->generation_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count();
  }
  return rules;
}

std::vector<Rule> generate_rules(const MiningResult& mined,
                                 const RuleParams& params) {
  params.validate();
  if (mined.db_size == 0) return {};
  const SupportIndex index(mined);
  return generate_rules(mined, params, index);
}

}  // namespace gpumine::core
