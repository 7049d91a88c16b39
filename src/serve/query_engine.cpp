#include "serve/query_engine.hpp"

#include <algorithm>
#include <utility>

#include "analysis/export.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"

namespace gpumine::serve {

QueryEngine::QueryEngine(core::RuleSnapshot snapshot)
    : snapshot_(std::move(snapshot)) {
  GPUMINE_SPAN("serve/engine_build");
  index_ = core::SupportIndex(snapshot_.result);
  const std::vector<core::Rule>& rules = snapshot_.rules;
  const std::size_t num_items = snapshot_.catalog.size();

  // One pass: the shared (antecedent, consequent) lookup, and per item
  // the rules mentioning it, in snapshot order.
  core::RuleLookup lookup(rules);
  std::vector<std::vector<std::uint32_t>> keyed(num_items);
  {
    GPUMINE_SPAN("serve/engine_index");
    for (std::uint32_t i = 0; i < rules.size(); ++i) {
      lookup.add(i);
      const core::Rule& rule = rules[i];
      for (const core::ItemId id : rule.antecedent) keyed.at(id).push_back(i);
      for (const core::ItemId id : rule.consequent) keyed.at(id).push_back(i);
    }
  }

  answers_.resize(num_items);
  parallel_for(0, num_items, [&](std::size_t item) {
    GPUMINE_SPAN("serve/engine_keyword");
    const auto id = static_cast<core::ItemId>(item);
    Answer& answer = answers_[item];
    answer.survivors =
        core::prune_rules(rules, lookup, keyed[item], id,
                          snapshot_.prune_params, &answer.prune_stats);
    answer.json = analysis::rules_to_json(id, rules, answer.survivors,
                                          snapshot_.catalog);
  });
  keywords_with_rules_ = static_cast<std::size_t>(
      std::count_if(answers_.begin(), answers_.end(),
                    [](const Answer& a) { return !a.survivors.empty(); }));
}

const QueryEngine::Answer* QueryEngine::query(std::string_view keyword) const {
  const auto id = snapshot_.catalog.find(keyword);
  return id ? &answers_[*id] : nullptr;
}

const std::string* QueryEngine::query_json(std::string_view keyword) const {
  const Answer* answer = query(keyword);
  return answer != nullptr ? &answer->json : nullptr;
}

std::optional<std::uint64_t> QueryEngine::support_count(
    const std::vector<std::string>& item_names) const {
  core::Itemset items;
  items.reserve(item_names.size());
  for (const std::string& name : item_names) {
    const auto id = snapshot_.catalog.find(name);
    if (!id) return std::nullopt;
    items.push_back(*id);
  }
  core::canonicalize(items);
  return index_.find(items);
}

std::vector<std::string> QueryEngine::keyword_names() const {
  std::vector<std::string> names;
  names.reserve(snapshot_.catalog.size());
  for (core::ItemId id = 0; id < snapshot_.catalog.size(); ++id) {
    names.push_back(snapshot_.catalog.name(id));
  }
  return names;
}

}  // namespace gpumine::serve
