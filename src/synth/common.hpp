// Shared infrastructure for the synthetic trace generators.
//
// Each generator (pai.hpp / supercloud.hpp / philly.hpp) substitutes for
// a production trace we cannot ship (see DESIGN.md): it draws jobs from a
// mixture of workload archetypes calibrated against the marginal and
// conditional structure the paper documents, runs them through the
// discrete-event cluster simulator for queueing/retry dynamics, samples
// utilization profiles through the monitoring layer, and emits the same
// two-level table layout real traces have (scheduler-level + node-level,
// keyed by job id) so the preprocessing join path is exercised.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "prep/table.hpp"
#include "trace/job.hpp"
#include "trace/rng.hpp"

namespace gpumine::synth {

/// A generated trace: the two collection-level tables (to be merged with
/// prep::left_join on "job_id") plus the ground-truth records the tests
/// calibrate against.
struct SynthTrace {
  prep::Table scheduler;  // submission-time + outcome features
  prep::Table node;       // monitoring aggregates
  std::vector<trace::JobRecord> records;

  /// scheduler ⋈ node on job_id, with the key column dropped — the
  /// single mining table of Sec. III-E.
  [[nodiscard]] prep::Table merged() const;
};

/// Draws user (or job-group) identifiers with a controlled activity
/// skew: a small heavy set that ends up in the top-25%-share "frequent"
/// group, a broad regular set, and a long tail of rare principals that
/// ends up in the bottom-share "new/occasional" group.
class PrincipalPool {
 public:
  /// `prefix` distinguishes pools ("u" for users, "g" for groups).
  PrincipalPool(std::string prefix, std::size_t num_heavy,
                std::size_t num_regular, std::size_t num_rare);

  [[nodiscard]] std::string heavy(trace::Rng& rng) const;
  [[nodiscard]] std::string regular(trace::Rng& rng) const;
  [[nodiscard]] std::string rare(trace::Rng& rng) const;

  /// Draws by class weights (heavy/regular/rare).
  [[nodiscard]] std::string draw(trace::Rng& rng, double w_heavy,
                                 double w_regular, double w_rare) const;

 private:
  std::string prefix_;
  std::size_t num_heavy_;
  std::size_t num_regular_;
  std::size_t num_rare_;
};

/// Fraction with a given exit status (Fig. 5).
[[nodiscard]] double status_fraction(const std::vector<trace::JobRecord>& records,
                                     trace::ExitStatus status);

}  // namespace gpumine::synth
