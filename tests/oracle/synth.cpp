#include "oracle/synth.hpp"

namespace gpumine::synth {

double zero_sm_fraction(const std::vector<trace::JobRecord>& records) {
  if (records.empty()) return 0.0;
  std::size_t zero = 0;
  for (const auto& r : records) {
    if (r.sm_util != trace::kUnset && r.sm_util < 0.5) ++zero;
  }
  return static_cast<double>(zero) / static_cast<double>(records.size());
}

}  // namespace gpumine::synth
