// Kernel-layer performance: the adaptive tid-set intersection kernels
// (core/tidset.hpp) against the pre-refactor vertical baseline —
// std::set_intersection over sorted uint32 lists followed by a weight
// rescan of the result — on the scaled PAI trace (google-benchmark).
//
// Doubles as the CI bench-smoke for the kernel layer, emitting one
// BENCH_*.json trajectory record and enforcing two gates:
//
//   * micro: the dispatched dense kernel must clear 3x the baseline's
//     intersection throughput on the trace's densest tid-lists;
//   * end-to-end: mine_eclat (bitmaps + diffsets + fused weights) must
//     clear 1.3x an embedded legacy Eclat — the exact algorithm the
//     engine ran before the kernel layer existed, serial
//     std::set_intersection extension with per-result weight rescans.
//
// Both run serially, so the gates measure kernels, not scheduling.
// Along the way every supported kernel tier x {1, 8} threads must
// reproduce the legacy miner's byte-exact itemsets — a perf win that
// changes output would be a bug, not a win.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "bench_util.hpp"
#include "common/arena.hpp"
#include "common/simd.hpp"
#include "core/eclat.hpp"
#include "core/tidset.hpp"
#include "core/transaction_db.hpp"
#include "synth/pai.hpp"

namespace {

using namespace gpumine;

core::TransactionDb make_trace_db(std::size_t num_jobs) {
  synth::PaiConfig config;
  config.num_jobs = num_jobs;
  const auto prepared = analysis::prepare(synth::generate_pai(config).merged(),
                                          analysis::pai_config());
  return prepared.db.dedup();
}

// ---------------------------------------------------------------------
// Legacy vertical miner: the pre-kernel-layer Eclat. Sorted uint32
// tid-lists, std::set_intersection per class extension, and the support
// recomputed by rescanning the freshly built list against the weight
// table. Kept verbatim as the baseline both gates compare against.

struct LegacyNode {
  core::ItemId item;
  std::vector<std::uint32_t> tids;
  std::uint64_t count = 0;
};

std::uint64_t legacy_weight_of(const std::vector<std::uint32_t>& tids,
                               const std::vector<std::uint64_t>& weights) {
  if (weights.empty()) return tids.size();
  std::uint64_t count = 0;
  for (const std::uint32_t t : tids) count += weights[t];
  return count;
}

void legacy_mine_class(const std::vector<LegacyNode>& klass,
                       const core::Itemset& prefix, std::uint64_t min_count,
                       std::size_t max_length,
                       const std::vector<std::uint64_t>& weights,
                       std::vector<core::FrequentItemset>& out) {
  for (std::size_t i = 0; i < klass.size(); ++i) {
    const LegacyNode& node = klass[i];
    core::Itemset extended = prefix;
    extended.push_back(node.item);
    core::canonicalize(extended);
    out.push_back({extended, node.count});
    if (extended.size() >= max_length) continue;

    std::vector<LegacyNode> next;
    for (std::size_t j = i + 1; j < klass.size(); ++j) {
      const LegacyNode& sibling = klass[j];
      LegacyNode child;
      child.item = sibling.item;
      std::set_intersection(node.tids.begin(), node.tids.end(),
                            sibling.tids.begin(), sibling.tids.end(),
                            std::back_inserter(child.tids));
      child.count = legacy_weight_of(child.tids, weights);
      if (child.count >= min_count) next.push_back(std::move(child));
    }
    if (!next.empty()) {
      legacy_mine_class(next, extended, min_count, max_length, weights, out);
    }
  }
}

core::MiningResult legacy_eclat(const core::TransactionDb& db,
                                const core::MiningParams& params) {
  core::MiningResult result;
  result.db_size = db.total_weight();
  if (db.empty()) return result;
  const std::uint64_t min_count = params.min_count(db.total_weight());
  const core::RankEncoding enc =
      core::rank_encode(db, min_count, /*with_tids=*/true);
  std::vector<LegacyNode> root;
  root.reserve(enc.num_ranks());
  for (std::uint32_t r = 0; r < enc.num_ranks(); ++r) {
    const auto tids = enc.tidlist(r);
    root.push_back({enc.item_of_rank[r],
                    std::vector<std::uint32_t>(tids.begin(), tids.end()),
                    enc.count_of_rank[r]});
  }
  legacy_mine_class(root, {}, min_count, params.max_length, enc.weights,
                    result.itemsets);
  core::sort_canonical(result.itemsets);
  return result;
}

// ---------------------------------------------------------------------
// CI bench-smoke.

int run_bench_smoke(const char* path, long pr, const char* commit,
                    std::size_t jobs) {
  const core::TransactionDb db = make_trace_db(jobs);
  core::MiningParams mining = analysis::pai_config().mining;
  mining.num_threads = 1;
  const std::uint64_t min_count = mining.min_count(db.total_weight());
  const core::RankEncoding enc =
      core::rank_encode(db, min_count, /*with_tids=*/true);
  if (enc.num_ranks() < 2) {
    std::fprintf(stderr, "FAIL: trace yielded fewer than 2 frequent items\n");
    return 1;
  }

  // Micro gate operands: the two densest tid-lists of the trace — the
  // shape the mining recursion's hot upper levels see.
  std::vector<std::uint32_t> ranks(enc.num_ranks());
  for (std::uint32_t r = 0; r < enc.num_ranks(); ++r) ranks[r] = r;
  std::sort(ranks.begin(), ranks.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return enc.tidlist(a).size() > enc.tidlist(b).size();
            });
  const auto list_a = enc.tidlist(ranks[0]);
  const auto list_b = enc.tidlist(ranks[1]);

  const core::TidOps ops(static_cast<std::uint32_t>(db.size()), enc.weights,
                         active_kernel_tier());
  Arena arena;
  core::KernelCounters kc;
  const core::TidSetView set_a =
      ops.build(list_a, ops.weight_of(list_a), arena, kc);
  const core::TidSetView set_b =
      ops.build(list_b, ops.weight_of(list_b), arena, kc);
  if (set_a.rep != core::TidRep::kDense ||
      set_b.rep != core::TidRep::kDense) {
    std::fprintf(stderr,
                 "FAIL: densest tid-lists (%zu, %zu of %zu rows) did not "
                 "become bitmaps\n",
                 list_a.size(), list_b.size(), db.size());
    return 1;
  }

  // One rep = `kMicroIters` intersections, so the per-call overhead of
  // the timer does not drown sub-microsecond kernels. Each loop sums
  // the weights it computes and the sums are compared afterwards, so
  // the work is observable and cannot be optimized away. (Do NOT
  // funnel an lvalue through benchmark::DoNotOptimize here — its
  // read-write "+m,r" asm constraint clobbers the operand under gcc.)
  constexpr int kMicroIters = 200;
  std::vector<std::uint32_t> legacy_out;
  legacy_out.reserve(std::min(list_a.size(), list_b.size()));
  std::uint64_t baseline_sum = 0;
  const double baseline_ms = bench::best_of_ms([&] {
    baseline_sum = 0;
    for (int i = 0; i < kMicroIters; ++i) {
      legacy_out.clear();
      std::set_intersection(list_a.begin(), list_a.end(), list_b.begin(),
                            list_b.end(), std::back_inserter(legacy_out));
      std::uint64_t weight = 0;
      for (const std::uint32_t t : legacy_out) {
        weight += enc.weights.empty() ? 1 : enc.weights[t];
      }
      baseline_sum += weight;
    }
  });

  std::uint64_t kernel_sum = 0;
  const double kernel_ms = bench::best_of_ms([&] {
    kernel_sum = 0;
    for (int i = 0; i < kMicroIters; ++i) {
      const Arena::Mark mark = arena.mark();
      kernel_sum += ops.intersect(set_a, set_b, arena, kc).count;
      arena.rewind(mark);
    }
  });
  if (kernel_sum != baseline_sum) {
    std::fprintf(stderr, "FAIL: kernel weight sum %llu != baseline %llu\n",
                 static_cast<unsigned long long>(kernel_sum),
                 static_cast<unsigned long long>(baseline_sum));
    return 1;
  }
  const double micro_speedup = baseline_ms / kernel_ms;

  // Equivalence sweep: every tier x thread count reproduces the legacy
  // miner's itemsets, order, counts and db_size.
  const auto legacy = legacy_eclat(db, mining);
  if (legacy.itemsets.empty()) {
    std::fprintf(stderr, "FAIL: legacy eclat mined no itemsets\n");
    return 1;
  }
  for (const KernelTier tier :
       {KernelTier::kScalar, KernelTier::kWord, KernelTier::kAvx2}) {
    if (!kernel_tier_supported(tier)) continue;
    force_kernel_tier(tier);
    for (const std::size_t threads : {1u, 8u}) {
      core::MiningParams p = mining;
      p.num_threads = threads;
      if (!core::same_itemsets(core::mine_eclat(db, p), legacy)) {
        clear_forced_kernel_tier();
        std::fprintf(stderr,
                     "FAIL: eclat diverged from legacy at tier=%s "
                     "threads=%zu\n",
                     kernel_tier_name(tier), threads);
        return 1;
      }
    }
  }
  clear_forced_kernel_tier();

  // End-to-end gate, both serial: kernels vs the legacy miner.
  const double legacy_ms = bench::best_of_ms(
      [&] { benchmark::DoNotOptimize(legacy_eclat(db, mining)); });
  core::MiningResult mined;
  const double eclat_ms = bench::best_of_ms(
      [&] { mined = core::mine_eclat(db, mining); });
  const double eclat_speedup = legacy_ms / eclat_ms;
  const core::KernelMetrics& k = mined.metrics.kernel_stage;

  if (micro_speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: dense kernel speedup x%.2f over set_intersection "
                 "is below the 3x gate\n",
                 micro_speedup);
    return 1;
  }
  if (eclat_speedup < 1.3) {
    std::fprintf(stderr,
                 "FAIL: eclat speedup x%.2f over the legacy miner is "
                 "below the 1.3x gate\n",
                 eclat_speedup);
    return 1;
  }

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(
      out,
      "{\"pr\":%ld,\"commit\":\"%s\",\"tier\":\"%s\",\"jobs\":%zu,"
      "\"micro_baseline_ms\":%.4f,\"micro_kernel_ms\":%.4f,"
      "\"micro_speedup\":%.2f,\"legacy_eclat_ms\":%.3f,\"eclat_ms\":%.3f,"
      "\"eclat_speedup\":%.2f,\"diffset_switches\":%llu}\n",
      pr, commit, k.tier.c_str(), jobs, baseline_ms, kernel_ms, micro_speedup,
      legacy_ms, eclat_ms, eclat_speedup,
      static_cast<unsigned long long>(k.diffset_switches));
  std::fclose(out);
  std::printf(
      "bench-smoke: tier %s, dense intersect %.4f ms vs %.4f ms baseline "
      "(x%.2f), eclat %.3f ms vs %.3f ms legacy (x%.2f), %llu diffset "
      "switches -> %s\n",
      k.tier.c_str(), kernel_ms, baseline_ms, micro_speedup, eclat_ms,
      legacy_ms, eclat_speedup,
      static_cast<unsigned long long>(k.diffset_switches), path);
  return 0;
}

// ---------------------------------------------------------------------
// google-benchmark suite.

void BM_DenseIntersect(benchmark::State& state) {
  const core::TransactionDb db = make_trace_db(20000);
  core::MiningParams mining = analysis::pai_config().mining;
  const std::uint64_t min_count = mining.min_count(db.total_weight());
  const core::RankEncoding enc =
      core::rank_encode(db, min_count, /*with_tids=*/true);
  const auto tier = static_cast<KernelTier>(state.range(0));
  if (!kernel_tier_supported(tier)) {
    state.SkipWithError("kernel tier not supported on this machine");
    return;
  }
  std::vector<std::uint32_t> ranks(enc.num_ranks());
  for (std::uint32_t r = 0; r < enc.num_ranks(); ++r) ranks[r] = r;
  std::sort(ranks.begin(), ranks.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return enc.tidlist(a).size() > enc.tidlist(b).size();
            });
  const core::TidOps ops(static_cast<std::uint32_t>(db.size()), enc.weights,
                         tier);
  Arena arena;
  core::KernelCounters kc;
  const core::TidSetView a =
      ops.build(enc.tidlist(ranks[0]), ops.weight_of(enc.tidlist(ranks[0])),
                arena, kc);
  const core::TidSetView b =
      ops.build(enc.tidlist(ranks[1]), ops.weight_of(enc.tidlist(ranks[1])),
                arena, kc);
  for (auto _ : state) {
    const Arena::Mark mark = arena.mark();
    benchmark::DoNotOptimize(ops.intersect(a, b, arena, kc));
    arena.rewind(mark);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(ops.num_words() * 2 * sizeof(std::uint64_t)));
}
BENCHMARK(BM_DenseIntersect)
    ->Arg(static_cast<int>(KernelTier::kScalar))
    ->Arg(static_cast<int>(KernelTier::kWord))
    ->Arg(static_cast<int>(KernelTier::kAvx2))
    ->Unit(benchmark::kMicrosecond);

void BM_EclatKernels(benchmark::State& state) {
  const core::TransactionDb db = make_trace_db(20000);
  core::MiningParams mining = analysis::pai_config().mining;
  mining.num_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mine_eclat(db, mining));
  }
}
BENCHMARK(BM_EclatKernels)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_LegacyEclat(benchmark::State& state) {
  const core::TransactionDb db = make_trace_db(20000);
  core::MiningParams mining = analysis::pai_config().mining;
  mining.num_threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy_eclat(db, mining));
  }
}
BENCHMARK(BM_LegacyEclat)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main, mirroring perf_partitioned.cpp:
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
