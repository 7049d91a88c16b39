// Partitioned SON mining performance: pass-2 candidate verification via
// the indexed parallel sweep vs the pre-refactor serial subset scan
// (google-benchmark).
//
// The verification baseline is the old pass 2 of core::mine_partitioned,
// embedded below as `serial_verify`: for every transaction, test every
// candidate with a linear is_subset — O(|candidates| x |DB|) with no
// dedup and no sharing across candidates. Doubles as the CI bench-smoke
// for the scale-out path, emitting one BENCH_*.json trajectory record
// with the pass-1/pass-2 split, the candidate funnel, and the verify
// speedup — asserting along the way that SON output is byte-identical
// to direct FP-Growth across partition and thread counts, and that the
// serial baseline reproduces the same counts.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "bench_util.hpp"
#include "core/fpgrowth.hpp"
#include "core/partitioned.hpp"
#include "core/transaction_db.hpp"
#include "synth/pai.hpp"

namespace {

using namespace gpumine;

// ---------------------------------------------------------------------
// Fixture: the scaled synthetic PAI trace through its canonical prep
// config — the workload class SON exists for (the paper's production
// traces run 100k-850k jobs).

core::TransactionDb make_trace_db(std::size_t num_jobs) {
  synth::PaiConfig config;
  config.num_jobs = num_jobs;
  const auto prepared = analysis::prepare(synth::generate_pai(config).merged(),
                                          analysis::pai_config());
  return prepared.db;
}

// Pass 1 through public APIs, reproducing the engine's exact integer
// per-partition thresholds, so the serial baseline verifies the same
// candidate set the indexed pass 2 sees.
std::vector<core::Itemset> son_candidates(const core::TransactionDb& db,
                                          const core::MiningParams& mining,
                                          std::size_t num_partitions) {
  const std::size_t p = std::min(num_partitions, db.size());
  const std::uint64_t total_weight = db.total_weight();
  const std::uint64_t min_count = mining.min_count(total_weight);
  std::vector<core::TransactionDb> parts(p);
  for (std::size_t t = 0; t < db.size(); ++t) {
    const auto txn = db[t];
    parts[t * p / db.size()].add(core::Itemset(txn.begin(), txn.end()),
                                 db.weight(t));
  }
  std::unordered_set<core::Itemset, core::ItemsetHash, core::ItemsetEq> seen;
  for (auto& part : parts) {
    part = part.dedup();
    core::MiningParams local = mining;
    local.num_threads = 1;
    local.min_count_override = std::max<std::uint64_t>(
        1, (min_count * part.total_weight() + total_weight - 1) /
               total_weight);
    for (auto& fi : core::mine_fpgrowth(part, local).itemsets) {
      seen.insert(std::move(fi.items));
    }
  }
  std::vector<core::Itemset> candidates(seen.begin(), seen.end());
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

// The pre-refactor pass 2: every candidate linearly subset-tested
// against every transaction, single-threaded, over the raw rows.
std::vector<std::uint64_t> serial_verify(
    const core::TransactionDb& db,
    const std::vector<core::Itemset>& candidates) {
  std::vector<std::uint64_t> counts(candidates.size(), 0);
  for (std::size_t t = 0; t < db.size(); ++t) {
    const auto txn = db[t];
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (core::is_subset(candidates[c], txn)) counts[c] += db.weight(t);
    }
  }
  return counts;
}

// CI bench-smoke for the scale-out path. Asserts SON == direct
// FP-Growth byte for byte across partitions x threads, times the
// indexed pass 2 against the serial subset scan, and writes one
// BENCH_*.json record. Exits non-zero when the indexed verification
// fails to beat the serial scan by 1.5x at 8 threads, or on any
// equivalence break. Returns a process exit code.
int run_bench_smoke(const char* path, long pr, const char* commit,
                    std::size_t jobs) {
  const core::TransactionDb db = make_trace_db(jobs);
  core::MiningParams mining = analysis::pai_config().mining;
  mining.num_threads = 1;

  const auto direct = core::mine_fpgrowth(db, mining);
  if (direct.itemsets.empty()) {
    std::fprintf(stderr, "FAIL: direct mining found no itemsets\n");
    return 1;
  }
  const double direct_ms = bench::best_of_ms(
      [&] { benchmark::DoNotOptimize(core::mine_fpgrowth(db, mining)); });

  // Equivalence sweep: every partition/thread combination must list the
  // same itemsets, order, counts and db_size as direct FP-Growth.
  for (const std::size_t partitions : {1u, 4u, 16u}) {
    for (const std::size_t threads : {1u, 8u}) {
      core::PartitionedParams params;
      params.mining = mining;
      params.num_partitions = partitions;
      params.num_threads = threads;
      const auto son = core::mine_partitioned(db, params);
      if (!core::same_itemsets(son, direct)) {
        std::fprintf(stderr,
                     "FAIL: SON diverged from direct FP-Growth at "
                     "partitions=%zu threads=%zu\n",
                     partitions, threads);
        return 1;
      }
    }
  }

  // The serial baseline must reproduce the engine's verified counts on
  // the same candidate set — otherwise the timing comparison is moot.
  core::PartitionedParams son_params;
  son_params.mining = mining;
  son_params.num_partitions = 16;
  son_params.num_threads = 8;
  const auto son = core::mine_partitioned(db, son_params);
  const auto candidates = son_candidates(db, mining, 16);
  const auto counts = serial_verify(db, candidates);
  const std::uint64_t min_count = mining.min_count(db.total_weight());
  std::size_t survivors = 0;
  for (const std::uint64_t c : counts) survivors += (c >= min_count) ? 1 : 0;
  if (survivors != son.itemsets.size()) {
    std::fprintf(stderr,
                 "FAIL: serial baseline verified %zu candidates, SON %zu\n",
                 survivors, son.itemsets.size());
    return 1;
  }

  const double serial_verify_ms = bench::best_of_ms(
      [&] { benchmark::DoNotOptimize(serial_verify(db, candidates)); });
  // The engine's own pass-2 time (index build + sharded count + reduce)
  // at 8 threads, best of three full runs.
  double pass1_ms = 1e300;
  double pass2_ms = 1e300;
  core::PartitionMetrics stage;
  for (int rep = 0; rep < 3; ++rep) {
    const auto run = core::mine_partitioned(db, son_params);
    const auto& m = run.metrics.partition_stage;
    pass1_ms = std::min(pass1_ms, m.pass1_seconds * 1e3);
    if (m.pass2_seconds * 1e3 < pass2_ms) {
      pass2_ms = m.pass2_seconds * 1e3;
      stage = m;
    }
  }
  const double son_total_ms = bench::best_of_ms([&] {
    benchmark::DoNotOptimize(core::mine_partitioned(db, son_params));
  });

  // Acceptance gate: indexed parallel verification must clear 1.5x over
  // the serial subset scan at 8 threads. It holds even on a single-core
  // runner because the candidate trie shares prefix work across
  // candidates and the scan runs over deduplicated rows — wins on
  // algorithm, not parallelism alone.
  const double verify_speedup = serial_verify_ms / pass2_ms;
  if (verify_speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: pass-2 verify speedup %.2f < 1.5 "
                 "(serial %.3f ms vs indexed %.3f ms)\n",
                 verify_speedup, serial_verify_ms, pass2_ms);
    return 1;
  }

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(
      out,
      "{\"pr\":%ld,\"commit\":\"%s\",\"jobs\":%zu,\"rows\":%llu,"
      "\"distinct_rows\":%llu,\"partitions\":%zu,\"threads\":%zu,"
      "\"candidates\":%llu,\"verified\":%llu,"
      "\"false_candidate_rate\":%.4f,\"verify_shards\":%llu,"
      "\"pass1_ms\":%.3f,\"pass2_ms\":%.3f,\"serial_verify_ms\":%.3f,"
      "\"verify_speedup\":%.3f,\"son_total_ms\":%.3f,"
      "\"direct_mine_ms\":%.3f}\n",
      pr, commit, jobs,
      static_cast<unsigned long long>(stage.input_rows),
      static_cast<unsigned long long>(stage.distinct_rows),
      stage.num_partitions, stage.num_threads,
      static_cast<unsigned long long>(stage.candidates),
      static_cast<unsigned long long>(stage.verified),
      stage.false_candidate_rate,
      static_cast<unsigned long long>(stage.verify_shards), pass1_ms,
      pass2_ms, serial_verify_ms, verify_speedup, son_total_ms, direct_ms);
  std::fclose(out);
  std::printf(
      "bench-smoke: %zu jobs -> %llu rows (%llu distinct), %llu candidates "
      "(%llu verified), pass1 %.3f ms, pass2 %.3f ms vs serial %.3f ms "
      "(x%.2f), SON total %.3f ms vs direct %.3f ms -> %s\n",
      jobs, static_cast<unsigned long long>(stage.input_rows),
      static_cast<unsigned long long>(stage.distinct_rows),
      static_cast<unsigned long long>(stage.candidates),
      static_cast<unsigned long long>(stage.verified), pass1_ms, pass2_ms,
      serial_verify_ms, verify_speedup, son_total_ms, direct_ms, path);
  return 0;
}

// ---------------------------------------------------------------------
// google-benchmark suite.

void BM_SonMine(benchmark::State& state) {
  const core::TransactionDb db = make_trace_db(20000);
  core::PartitionedParams params;
  params.mining = analysis::pai_config().mining;
  params.mining.num_threads = 1;
  params.num_partitions = static_cast<std::size_t>(state.range(0));
  params.num_threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mine_partitioned(db, params));
  }
}
BENCHMARK(BM_SonMine)
    ->Args({4, 1})
    ->Args({4, 8})
    ->Args({16, 8})
    ->Unit(benchmark::kMillisecond);

void BM_DirectMine(benchmark::State& state) {
  const core::TransactionDb db = make_trace_db(20000);
  core::MiningParams mining = analysis::pai_config().mining;
  mining.num_threads = 1;
  const core::TransactionDb deduped = db.dedup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mine_fpgrowth(deduped, mining));
  }
}
BENCHMARK(BM_DirectMine)->Unit(benchmark::kMillisecond);

void BM_SerialVerify(benchmark::State& state) {
  const core::TransactionDb db = make_trace_db(20000);
  core::MiningParams mining = analysis::pai_config().mining;
  mining.num_threads = 1;
  const auto candidates = son_candidates(db, mining, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serial_verify(db, candidates));
  }
  state.counters["candidates"] = static_cast<double>(candidates.size());
}
BENCHMARK(BM_SerialVerify)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main, mirroring perf_mining.cpp / perf_prep.cpp:
// `--smoke-json=PATH [--smoke-pr=N] [--smoke-commit=SHA]
// [--smoke-jobs=N]` runs only the CI bench-smoke and writes the
// trajectory record there; otherwise the google-benchmark suite runs.
int main(int argc, char** argv) {
  const char* smoke_json = nullptr;
  long smoke_pr = 0;
  const char* smoke_commit = "unknown";
  std::size_t smoke_jobs = 60000;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--smoke-json=")) {
      smoke_json = argv[i] + std::string_view("--smoke-json=").size();
    } else if (arg.starts_with("--smoke-pr=")) {
      smoke_pr = std::strtol(argv[i] + std::string_view("--smoke-pr=").size(),
                             nullptr, 10);
    } else if (arg.starts_with("--smoke-commit=")) {
      smoke_commit = argv[i] + std::string_view("--smoke-commit=").size();
    } else if (arg.starts_with("--smoke-jobs=")) {
      smoke_jobs = static_cast<std::size_t>(std::strtoul(
          argv[i] + std::string_view("--smoke-jobs=").size(), nullptr, 10));
    }
  }
  if (smoke_json != nullptr) {
    return run_bench_smoke(smoke_json, smoke_pr, smoke_commit, smoke_jobs);
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
