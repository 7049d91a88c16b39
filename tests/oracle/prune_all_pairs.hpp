// Keyword pruning (paper Sec. III-D) by its literal definition: every
// ordered pair of keyword rules is tested, and a condition applies when
// the pair shares one side exactly and the other side of the first rule
// is a proper subset of the second's. Quadratic in the rule count and
// sharing no code with core::prune_rules's lookup, it is the pruning
// tests' oracle.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "core/pruning.hpp"

namespace gpumine::core {

/// Indices of the rules that survive Conditions 1-4, in input order.
/// `pruned_by[c]` counts the firings of condition c+1, attributed the
/// way PruneStats::pruned_by is.
[[nodiscard]] std::vector<std::size_t> prune_all_pairs(
    const std::vector<Rule>& rules, ItemId keyword, const PruneParams& params,
    std::array<std::size_t, 4>& pruned_by);

}  // namespace gpumine::core
