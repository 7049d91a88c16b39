#include "synth/common.hpp"

#include "common/ensure.hpp"
#include "prep/join.hpp"

namespace gpumine::synth {

prep::Table SynthTrace::merged() const {
  prep::Table out = prep::left_join(scheduler, node, "job_id");
  out.drop_column("job_id");
  return out;
}

PrincipalPool::PrincipalPool(std::string prefix, std::size_t num_heavy,
                             std::size_t num_regular, std::size_t num_rare)
    : prefix_(std::move(prefix)),
      num_heavy_(num_heavy),
      num_regular_(num_regular),
      num_rare_(num_rare) {
  GPUMINE_CHECK_ARG(num_heavy_ > 0 && num_regular_ > 0 && num_rare_ > 0,
                    "all principal classes need at least one member");
}

std::string PrincipalPool::heavy(trace::Rng& rng) const {
  return prefix_ + "h" + std::to_string(rng.uniform_int(0, num_heavy_ - 1));
}

std::string PrincipalPool::regular(trace::Rng& rng) const {
  // Mild skew inside the regular class (a few moderately active members)
  // keeps the count distribution realistic without a full Zipf fit.
  const double u = rng.uniform();
  const auto idx = static_cast<std::uint64_t>(
      u * u * static_cast<double>(num_regular_));
  return prefix_ + "r" +
         std::to_string(std::min<std::uint64_t>(idx, num_regular_ - 1));
}

std::string PrincipalPool::rare(trace::Rng& rng) const {
  return prefix_ + "n" + std::to_string(rng.uniform_int(0, num_rare_ - 1));
}

std::string PrincipalPool::draw(trace::Rng& rng, double w_heavy,
                                double w_regular, double w_rare) const {
  const double weights[] = {w_heavy, w_regular, w_rare};
  switch (rng.weighted_choice(weights)) {
    case 0:
      return heavy(rng);
    case 1:
      return regular(rng);
    default:
      return rare(rng);
  }
}

double status_fraction(const std::vector<trace::JobRecord>& records,
                       trace::ExitStatus status) {
  if (records.empty()) return 0.0;
  std::size_t n = 0;
  for (const auto& r : records) {
    if (r.status == status) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(records.size());
}

}  // namespace gpumine::synth
