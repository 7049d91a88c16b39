// Calibration and determinism tests for the synthetic trace generators.
//
// The target numbers come from the paper (Figs. 4-5, Secs. II/IV); see
// DESIGN.md section 6. Tolerances are loose — we assert the documented
// *shape*, not exact percentages.
#include <gtest/gtest.h>

#include "oracle/synth.hpp"
#include "synth/common.hpp"
#include "synth/pai.hpp"
#include "synth/philly.hpp"
#include "synth/supercloud.hpp"

namespace gpumine::synth {
namespace {

using trace::ExitStatus;

PaiConfig pai_cfg() {
  PaiConfig c;
  c.num_jobs = 8000;
  return c;
}

SuperCloudConfig sc_cfg() {
  SuperCloudConfig c;
  c.num_jobs = 8000;
  return c;
}

PhillyConfig philly_cfg() {
  PhillyConfig c;
  c.num_jobs = 8000;
  return c;
}

TEST(Pai, CalibrationTargets) {
  const auto t = generate_pai(pai_cfg());
  ASSERT_EQ(t.records.size(), 8000u);
  // Fig. 4: ~46% of PAI jobs at 0% SM utilization.
  EXPECT_NEAR(zero_sm_fraction(t.records), 0.46, 0.06);
  // Fig. 5: PAI has the highest failure share, ~30-40%.
  const double failed = status_fraction(t.records, ExitStatus::kFailed);
  EXPECT_GT(failed, 0.25);
  EXPECT_LT(failed, 0.45);
  // PAI has no user-killed label.
  EXPECT_DOUBLE_EQ(status_fraction(t.records, ExitStatus::kKilled), 0.0);
  // Sec. IV-C: >99% multi-GPU.
  std::size_t multi = 0;
  for (const auto& r : t.records) multi += r.num_gpus > 1 ? 1 : 0;
  EXPECT_GT(static_cast<double>(multi) / 8000.0, 0.99);
}

TEST(Pai, StandardRequestSpikeExists) {
  const auto t = generate_pai(pai_cfg());
  // ~half the jobs request the standard 600 CPU cores (Sec. IV-B).
  std::size_t std_req = 0;
  for (const auto& r : t.records) std_req += r.cpu_request_cores == 600.0;
  EXPECT_NEAR(static_cast<double>(std_req) / 8000.0, 0.47, 0.08);
}

TEST(Pai, QueuePressureInvertedBetweenT4AndNonT4) {
  // PAI1/PAI2: T4 queues short, non-T4 queues long despite more GPUs.
  const auto t = generate_pai(pai_cfg());
  double t4_sum = 0.0, t4_n = 0.0, nont4_sum = 0.0, nont4_n = 0.0;
  for (const auto& r : t.records) {
    if (r.gpu_model == trace::GpuModel::kT4) {
      t4_sum += r.queue_time_s;
      t4_n += 1.0;
    } else if (r.gpu_model == trace::GpuModel::kNonT4) {
      nont4_sum += r.queue_time_s;
      nont4_n += 1.0;
    }
  }
  ASSERT_GT(t4_n, 100.0);
  ASSERT_GT(nont4_n, 100.0);
  EXPECT_GT(nont4_sum / nont4_n, 3.0 * (t4_sum / t4_n));
}

TEST(Pai, MergedTableSchema) {
  const auto t = generate_pai(pai_cfg());
  const auto merged = t.merged();
  EXPECT_EQ(merged.num_rows(), 8000u);
  for (const char* col :
       {"User", "Group", "Framework", "Model", "Tasks", "GPU Type",
        "GPU Request", "CPU Request", "Mem Request", "Queue", "Runtime",
        "Status", "CPU Util", "Memory Used", "SM Util", "GMem Used"}) {
    EXPECT_TRUE(merged.has_column(col)) << col;
  }
  EXPECT_FALSE(merged.has_column("job_id"));  // dropped by merged()
}

TEST(Pai, DeterministicForSameSeed) {
  const auto a = generate_pai(pai_cfg());
  const auto b = generate_pai(pai_cfg());
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); i += 97) {
    EXPECT_EQ(a.records[i].user, b.records[i].user);
    EXPECT_DOUBLE_EQ(a.records[i].runtime_s, b.records[i].runtime_s);
    EXPECT_DOUBLE_EQ(a.records[i].sm_util, b.records[i].sm_util);
    EXPECT_EQ(a.records[i].status, b.records[i].status);
  }
}

TEST(Pai, DifferentSeedsDiffer) {
  auto cfg = pai_cfg();
  const auto a = generate_pai(cfg);
  cfg.seed = 777;
  const auto b = generate_pai(cfg);
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < a.records.size(); i += 97) {
    diffs += a.records[i].runtime_s != b.records[i].runtime_s;
  }
  EXPECT_GT(diffs, 10u);
}

TEST(SuperCloud, CalibrationTargets) {
  const auto t = generate_supercloud(sc_cfg());
  // Fig. 4: ~10% zero-SM jobs.
  EXPECT_NEAR(zero_sm_fraction(t.records), 0.11, 0.05);
  // Failed and killed both present and sizable.
  EXPECT_GT(status_fraction(t.records, ExitStatus::kFailed), 0.07);
  EXPECT_GT(status_fraction(t.records, ExitStatus::kKilled), 0.08);
  // 97% single-GPU (Sec. IV-C).
  std::size_t single = 0;
  for (const auto& r : t.records) single += r.num_gpus == 1;
  EXPECT_NEAR(static_cast<double>(single) / 8000.0, 0.97, 0.02);
}

TEST(SuperCloud, IdleVsInferenceSignature) {
  // Among zero-SM jobs two populations must exist (Table III A1/A2):
  // truly idle (SM variance ~ 0, little GPU memory) and occasional
  // inference (variance > 0, model resident in memory).
  const auto t = generate_supercloud(sc_cfg());
  std::size_t idle = 0;
  std::size_t inference = 0;
  for (const auto& r : t.records) {
    if (r.sm_util != 0.0) continue;
    if (r.sm_util_var < 1.0 && r.gmem_used_gb < 1.0) ++idle;
    if (r.sm_util_var > 5.0 && r.gmem_used_gb > 5.0) ++inference;
  }
  EXPECT_GT(idle, 200u);
  EXPECT_GT(inference, 100u);
}

TEST(SuperCloud, LongRuntimeFailuresExist) {
  // Table VI A2: a large share of failures happen deep into long runs.
  const auto t = generate_supercloud(sc_cfg());
  std::vector<double> runtimes;
  for (const auto& r : t.records) runtimes.push_back(r.runtime_s);
  std::sort(runtimes.begin(), runtimes.end());
  const double p75 = runtimes[runtimes.size() * 3 / 4];
  std::size_t failed = 0;
  std::size_t failed_long = 0;
  for (const auto& r : t.records) {
    if (r.status == ExitStatus::kFailed || r.status == ExitStatus::kTimeout) {
      ++failed;
      failed_long += r.runtime_s >= p75 ? 1 : 0;
    }
  }
  ASSERT_GT(failed, 100u);
  EXPECT_GT(static_cast<double>(failed_long) / static_cast<double>(failed),
            0.25);
}

TEST(SuperCloud, MergedTableSchema) {
  const auto merged = generate_supercloud(sc_cfg()).merged();
  for (const char* col :
       {"User", "Runtime", "Status", "CPU Util", "SM Util", "SM Util Var",
        "GMem Util", "GMem Util Var", "GMem Used", "GPU Power"}) {
    EXPECT_TRUE(merged.has_column(col)) << col;
  }
}

TEST(Philly, CalibrationTargets) {
  const auto t = generate_philly(philly_cfg());
  // Fig. 4: ~35% zero-SM jobs.
  EXPECT_NEAR(zero_sm_fraction(t.records), 0.345, 0.06);
  // ~14% multi-GPU (Sec. IV-C).
  std::size_t multi = 0;
  for (const auto& r : t.records) multi += r.num_gpus > 1;
  EXPECT_NEAR(static_cast<double>(multi) / 8000.0, 0.14, 0.03);
  // Failed ~15%, killed present.
  EXPECT_NEAR(status_fraction(t.records, ExitStatus::kFailed), 0.16, 0.05);
  EXPECT_GT(status_fraction(t.records, ExitStatus::kKilled), 0.08);
}

TEST(Philly, MultiGpuJobsFailMoreAndRunLonger) {
  const auto t = generate_philly(philly_cfg());
  double multi_fail = 0, multi_n = 0, single_fail = 0, single_n = 0;
  double multi_rt = 0, single_rt = 0;
  for (const auto& r : t.records) {
    const bool failed = r.status == ExitStatus::kFailed;
    if (r.num_gpus > 1) {
      multi_n += 1;
      multi_fail += failed;
      multi_rt += r.runtime_s;
    } else {
      single_n += 1;
      single_fail += failed;
      single_rt += r.runtime_s;
    }
  }
  // Table VII C1: multi-GPU failure rate ~2.5x the baseline.
  EXPECT_GT(multi_fail / multi_n, 2.0 * (single_fail / single_n));
  // Table VIII PHI1: multi-GPU jobs run much longer.
  EXPECT_GT(multi_rt / multi_n, 2.0 * (single_rt / single_n));
}

TEST(Philly, RetriesRecordedOnFailures) {
  const auto t = generate_philly(philly_cfg());
  std::size_t failed_retried = 0;
  std::size_t completed_multi_attempt = 0;
  for (const auto& r : t.records) {
    if (r.num_attempts > 1) {
      if (r.status == ExitStatus::kFailed) ++failed_retried;
      if (r.status == ExitStatus::kCompleted) ++completed_multi_attempt;
    }
  }
  EXPECT_GT(failed_retried, 200u);           // Table VII A1
  EXPECT_GT(completed_multi_attempt, 30u);   // retry sometimes rescues
}

TEST(Philly, MinSmUtilZeroIsCommonAmongFailures) {
  const auto t = generate_philly(philly_cfg());
  std::size_t failed = 0;
  std::size_t failed_min_zero = 0;
  for (const auto& r : t.records) {
    if (r.status != ExitStatus::kFailed) continue;
    ++failed;
    failed_min_zero += r.sm_util_min == 0.0;
  }
  ASSERT_GT(failed, 100u);
  EXPECT_GT(static_cast<double>(failed_min_zero) / static_cast<double>(failed),
            0.5);
}

TEST(PrincipalPool, DrawClassesAreDisjointAndStable) {
  const PrincipalPool pool("u", 3, 10, 50);
  trace::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(pool.heavy(rng).substr(0, 2), "uh");
    EXPECT_EQ(pool.regular(rng).substr(0, 2), "ur");
    EXPECT_EQ(pool.rare(rng).substr(0, 2), "un");
  }
}

TEST(PrincipalPool, Validation) {
  EXPECT_THROW(PrincipalPool("u", 0, 1, 1), std::invalid_argument);
}

TEST(StatusHelpers, Fractions) {
  std::vector<trace::JobRecord> records(4);
  records[0].status = ExitStatus::kFailed;
  records[1].status = ExitStatus::kCompleted;
  records[2].status = ExitStatus::kFailed;
  records[3].status = ExitStatus::kKilled;
  EXPECT_DOUBLE_EQ(status_fraction(records, ExitStatus::kFailed), 0.5);
  EXPECT_DOUBLE_EQ(status_fraction(records, ExitStatus::kKilled), 0.25);
  EXPECT_DOUBLE_EQ(status_fraction({}, ExitStatus::kFailed), 0.0);
}

}  // namespace
}  // namespace gpumine::synth
