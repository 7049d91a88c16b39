#include "oracle/bins.hpp"

#include <algorithm>
#include <cmath>

namespace gpumine::prep {

std::optional<std::string> label_for(const BinSpec& spec, double v) {
  if (std::isnan(v)) return std::nullopt;
  if (spec.has_zero_bin && v == 0.0) return spec.zero_label;
  if (spec.spike_value.has_value() && v == *spec.spike_value) {
    return spec.spike_label;
  }
  if (spec.labels.empty()) return std::nullopt;  // nothing after specials
  // First interval whose interior edge exceeds v; the last bin absorbs
  // everything above the top edge (closed upper end).
  std::size_t bin = static_cast<std::size_t>(
      std::upper_bound(spec.edges.begin(), spec.edges.end(), v) -
      spec.edges.begin());
  if (bin >= spec.labels.size()) bin = spec.labels.size() - 1;
  return spec.labels[bin];
}

}  // namespace gpumine::prep
