// Per-value bin classification, the reference the binning tests check
// fitted specs with. prep::apply_bins classifies whole columns the same
// way through cached label codes.
#pragma once

#include <optional>
#include <string>

#include "prep/binning.hpp"

namespace gpumine::prep {

/// Label of `v` under `spec`; nullopt for NaN (missing). Intervals are
/// left-closed, right-open except the last (closed), matching the
/// paper's quartile convention.
[[nodiscard]] std::optional<std::string> label_for(const BinSpec& spec,
                                                   double v);

}  // namespace gpumine::prep
