// Shared scaffolding for the figure/table reproduction binaries.
//
// Each binary regenerates its synthetic trace(s) with a fixed seed and
// prints the seed and job counts, so every row it prints can be
// re-derived exactly. Sizes are scaled down from the originals (850k /
// 98k / 100k jobs) to keep a full run of bench/ fast on one core; the
// rule structure is driven by proportions, not absolute counts. These
// binaries reproduce the paper's numbers and gate on no timing; the one
// timing harness is perf_e2e/ (see BENCHMARK.json).
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "synth/pai.hpp"
#include "synth/philly.hpp"
#include "synth/supercloud.hpp"

namespace gpumine::bench {

inline synth::PaiConfig pai_cfg() {
  synth::PaiConfig c;
  c.num_jobs = 60000;
  return c;
}

inline synth::SuperCloudConfig supercloud_cfg() {
  synth::SuperCloudConfig c;
  c.num_jobs = 40000;
  return c;
}

inline synth::PhillyConfig philly_cfg() {
  synth::PhillyConfig c;
  c.num_jobs = 40000;
  return c;
}

/// One studied trace: raw records, merged table factory and workflow
/// configuration.
struct TraceBundle {
  std::string name;
  synth::SynthTrace trace;
  analysis::WorkflowConfig config;
};

inline TraceBundle make_pai() {
  const auto cfg = pai_cfg();
  std::printf("[gen] PAI: %zu jobs, seed %llu\n", cfg.num_jobs,
              static_cast<unsigned long long>(cfg.seed));
  return {"PAI", synth::generate_pai(cfg), analysis::pai_config()};
}

inline TraceBundle make_supercloud() {
  const auto cfg = supercloud_cfg();
  std::printf("[gen] SuperCloud: %zu jobs, seed %llu\n", cfg.num_jobs,
              static_cast<unsigned long long>(cfg.seed));
  return {"SuperCloud", synth::generate_supercloud(cfg),
          analysis::supercloud_config()};
}

inline TraceBundle make_philly() {
  const auto cfg = philly_cfg();
  std::printf("[gen] Philly: %zu jobs, seed %llu\n", cfg.num_jobs,
              static_cast<unsigned long long>(cfg.seed));
  return {"Philly", synth::generate_philly(cfg), analysis::philly_config()};
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void print_header(const char* experiment, const char* paper_ref) {
  std::printf("==================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==================================================\n");
}

}  // namespace gpumine::bench
