// Reference helpers for the mining tests: a brute-force support count,
// the mining-result comparison the equivalence suites use, support
// recovery from closed itemsets, and an itemset printer for failure
// messages. Each is a plain scan or comparison that shares no code with
// the indexed paths it checks, and no shipped binary links them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/frequent.hpp"
#include "core/transaction_db.hpp"

namespace gpumine::core {

/// sigma(X): total weight of the transactions of `db` that contain
/// `itemset`, by a linear scan of the whole database.
[[nodiscard]] std::uint64_t support_count(const TransactionDb& db,
                                          std::span<const ItemId> itemset);

/// True when `a` and `b` list the same itemsets in the same order with
/// the same counts over the same db_size; metrics are not compared.
[[nodiscard]] bool same_itemsets(const MiningResult& a, const MiningResult& b);

/// Reconstructs the support of ANY itemset (frequent or not) from a
/// closed-itemset family: the support of X is the support of the
/// smallest closed superset of X, or 0 when no closed superset exists
/// (then X is infrequent). This is the losslessness property of closed
/// itemsets.
[[nodiscard]] std::uint64_t support_from_closed(
    const std::vector<FrequentItemset>& closed, const Itemset& itemset);

/// Renders ids as "{3, 17, 42}".
[[nodiscard]] std::string debug_string(std::span<const ItemId> items);

}  // namespace gpumine::core
