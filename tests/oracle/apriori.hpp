// Apriori frequent-itemset mining (Agrawal & Srikant, VLDB 1994).
//
// The classical level-wise baseline the paper contrasts FP-Growth
// against (Sec. III-C): generate candidate k-itemsets by joining frequent
// (k-1)-itemsets, prune candidates with an infrequent subset, then count
// candidates in one database pass per level. Exponential in the worst
// case, and no shipped binary links it: it is the test suites' oracle,
// an implementation that shares no code with FP-Growth's tree, against
// which the equivalence tests check every itemset and count.
#pragma once

#include "core/frequent.hpp"
#include "core/transaction_db.hpp"

namespace gpumine::core {

[[nodiscard]] MiningResult mine_apriori(const TransactionDb& db,
                                        const MiningParams& params);

}  // namespace gpumine::core
