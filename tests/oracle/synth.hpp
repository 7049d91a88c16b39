// Ground-truth statistics the synthetic-trace calibration tests compare
// against the paper's published marginals.
#pragma once

#include <vector>

#include "trace/job.hpp"

namespace gpumine::synth {

/// Fraction of `records` with sm_util rounded-to-zero — the headline
/// statistic of Fig. 4.
[[nodiscard]] double zero_sm_fraction(
    const std::vector<trace::JobRecord>& records);

}  // namespace gpumine::synth
