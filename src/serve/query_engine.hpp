// QueryEngine: the immutable in-memory index behind the rule-query
// server.
//
// A production deployment mines periodically and answers interactive
// root-cause queries from a pre-built structure (the shape of Facebook's
// fast-dimensional-analysis service): here, one QueryEngine is built
// from a core::RuleSnapshot and then never mutated. Construction runs
// the per-keyword half of core::analyze_keyword once for every item in
// the catalog — Conditions 1-4 pruning and the JSON rendering of
// analysis/export.hpp — so the serving path is a catalog lookup
// returning a pre-rendered response. Because the engine is immutable,
// any number of server threads can read it concurrently with no
// locking, and hot-reload is a shared_ptr swap in EngineHandle
// (serve/engine_handle.hpp), never an in-place update.
//
// The build makes one pass over the snapshot's rules. It fills one
// core::RuleLookup shared by every keyword and, per item, the indices
// of the rules that mention it; no rule is copied. It then prunes and
// renders each item as its own task on the shared compute pool of one
// worker per hardware thread (ThreadPool::shared(0)), which every build
// of the process reuses. Each keyword keeps only its JSON, its
// PruneStats and its survivors as indices into rules().
//
// The answers are byte-identical to running the one-shot CLI pipeline
// (`gpumine mine --keyword K --format json`) over the same mining
// result: pruning a keyword's rules is exactly what analyze_keyword
// does, and survivors come out in snapshot order, which is sort_rules
// order (the loader rejects any other). tests/serve/query_engine_test.cpp
// asserts both.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pruning.hpp"
#include "core/snapshot.hpp"
#include "core/support_index.hpp"

namespace gpumine::serve {

class QueryEngine {
 public:
  /// One keyword's pre-pruned answer.
  struct Answer {
    std::string json;              // analysis::rules_to_json bytes
    core::PruneStats prune_stats;  // over the rules mentioning the keyword
    std::vector<std::uint32_t> survivors;  // indices into rules()
  };

  /// Builds every catalog item's Answer; runs once per snapshot
  /// (re)load.
  explicit QueryEngine(core::RuleSnapshot snapshot);

  /// The pre-pruned answer for a keyword item name, or nullptr when the
  /// name is not in the snapshot's vocabulary.
  [[nodiscard]] const Answer* query(std::string_view keyword) const;

  /// The pre-rendered JSON response for the same lookup (the exact
  /// bytes of analysis::rules_to_json), or nullptr when unknown.
  [[nodiscard]] const std::string* query_json(std::string_view keyword) const;

  /// Support probe: sigma(items) for a set of item names, through the
  /// snapshot's SupportIndex. nullopt when any name is unknown or the
  /// set is not among the frequent itemsets.
  [[nodiscard]] std::optional<std::uint64_t> support_count(
      const std::vector<std::string>& item_names) const;

  [[nodiscard]] const core::ItemCatalog& catalog() const {
    return snapshot_.catalog;
  }
  [[nodiscard]] const core::SupportIndex& support_index() const {
    return index_;
  }
  /// The snapshot's rules, which Answer::survivors index.
  [[nodiscard]] const std::vector<core::Rule>& rules() const {
    return snapshot_.rules;
  }
  [[nodiscard]] std::uint64_t db_size() const {
    return snapshot_.result.db_size;
  }
  [[nodiscard]] std::size_t num_itemsets() const {
    return snapshot_.result.itemsets.size();
  }
  [[nodiscard]] std::size_t num_rules() const {
    return snapshot_.rules.size();
  }
  /// Catalog items with at least one surviving rule.
  [[nodiscard]] std::size_t num_keywords_with_rules() const {
    return keywords_with_rules_;
  }
  /// Every keyword name, in catalog (id) order.
  [[nodiscard]] std::vector<std::string> keyword_names() const;

 private:
  core::RuleSnapshot snapshot_;
  core::SupportIndex index_;
  std::vector<Answer> answers_;  // by ItemId
  std::size_t keywords_with_rules_ = 0;
};

}  // namespace gpumine::serve
