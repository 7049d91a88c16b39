// Closed and maximal frequent itemsets.
//
// A frequent itemset is *closed* when no proper superset has the same
// support, and *maximal* when no proper superset is frequent at all.
// Closed itemsets preserve the full support information of the frequent
// set in (often far) fewer entries; maximal itemsets give the frontier.
// The paper's related work (Sec. VI) leans on closed-itemset miners for
// streaming; here they also serve as a lossless compression step before
// archiving mining results.
#pragma once

#include "core/frequent.hpp"

namespace gpumine::core {

/// Itemsets of `mined` with no equal-support proper superset.
/// Deterministic order (sort_canonical). O(sum over sizes of per-itemset
/// superset probes) using the support map.
[[nodiscard]] std::vector<FrequentItemset> closed_itemsets(
    const MiningResult& mined);

/// Itemsets of `mined` with no frequent proper superset.
[[nodiscard]] std::vector<FrequentItemset> maximal_itemsets(
    const MiningResult& mined);

}  // namespace gpumine::core
