// Performance of FP-Growth mining plus the downstream rule-generation
// and pruning stages (google-benchmark).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "core/fpgrowth.hpp"
#include "core/pruning.hpp"
#include "bench_util.hpp"
#include "core/streaming.hpp"
#include "core/rules.hpp"
#include "trace/rng.hpp"

namespace {

using namespace gpumine;

// Random database shaped like an encoded job trace: `items` features
// with skewed inclusion probabilities, plus a handful of injected
// co-occurrence patterns (like job archetypes) so rule generation and
// pruning have realistic dependent structure to chew on.
core::TransactionDb make_db(std::size_t num_txns, core::ItemId items,
                            double density, std::uint64_t seed) {
  trace::Rng rng(seed);
  std::vector<double> p(items);
  for (auto& v : p) v = rng.uniform(0.2, 1.0) * density;
  std::vector<core::Itemset> patterns;
  for (int k = 0; k < 5; ++k) {
    core::Itemset pattern;
    for (int j = 0; j < 4; ++j) {
      pattern.push_back(static_cast<core::ItemId>(rng.uniform_int(0, items - 1)));
    }
    core::canonicalize(pattern);
    patterns.push_back(std::move(pattern));
  }
  core::TransactionDb db;
  for (std::size_t t = 0; t < num_txns; ++t) {
    core::Itemset txn;
    for (core::ItemId i = 0; i < items; ++i) {
      if (rng.bernoulli(p[i])) txn.push_back(i);
    }
    if (rng.bernoulli(0.35)) {
      const auto& pattern = patterns[rng.uniform_int(0, patterns.size() - 1)];
      txn.insert(txn.end(), pattern.begin(), pattern.end());
    }
    db.add(std::move(txn));
  }
  return db;
}

core::MiningParams params() {
  core::MiningParams p;
  p.min_support = 0.05;
  p.max_length = 5;
  return p;
}

// Skewed trace: a dense correlated block of items present in most
// transactions, a sparse tail in the rest. The block items' conditional
// FP-trees are large and nested, so one top-level projection dominates —
// the load-imbalance shape that defeats one-task-per-top-level-item
// scheduling and that recursive task spawning is built to fix.
core::TransactionDb make_skewed_db(std::size_t num_txns, std::uint64_t seed) {
  trace::Rng rng(seed);
  constexpr core::ItemId kDense = 18;   // heavy correlated block
  constexpr core::ItemId kSparse = 24;  // light tail items
  core::TransactionDb db;
  for (std::size_t t = 0; t < num_txns; ++t) {
    core::Itemset txn;
    if (rng.bernoulli(0.9)) {
      txn.push_back(0);  // the dominant item anchors the block
      for (core::ItemId i = 1; i < kDense; ++i) {
        if (rng.bernoulli(0.55)) txn.push_back(i);
      }
    }
    for (core::ItemId i = 0; i < kSparse; ++i) {
      if (rng.bernoulli(0.03)) txn.push_back(kDense + i);
    }
    db.add(std::move(txn));
  }
  return db;
}

// Wall-clocks one configuration (best of three runs).
double time_ms(const core::TransactionDb& db, const core::MiningParams& p,
               core::MiningResult* last = nullptr) {
  return bench::best_of_ms([&] {
    auto result = core::mine_fpgrowth(db, p);
    if (last) *last = std::move(result);
  });
}

// Compares the seed's scheduling (tasks only at the top level, emulated
// with an unreachable spawn cutoff) against recursive work-stealing
// spawning, on the skewed trace. Emits one machine-readable JSON line so
// the bench trajectory can track the speedup and steal counts over PRs.
void run_scheduler_experiment(std::size_t num_txns = 20000) {
  const auto db = make_skewed_db(num_txns, 7);
  // Floor at 4 workers: on a 1-core box the OS still interleaves them, so
  // stealing (and its metrics) are exercised even without real speedup.
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t threads = std::max<std::size_t>(4, hw);

  core::MiningParams serial = params();
  serial.min_support = 0.02;
  serial.num_threads = 1;

  core::MiningParams toplevel = serial;  // seed-style: no recursive spawns
  toplevel.num_threads = threads;
  toplevel.spawn_cutoff_nodes = static_cast<std::size_t>(-1);

  core::MiningParams recursive = serial;
  recursive.num_threads = threads;
  recursive.spawn_cutoff_nodes = 64;

  const double serial_ms = time_ms(db, serial);
  const double toplevel_ms = time_ms(db, toplevel);
  core::MiningResult mined;
  const double recursive_ms = time_ms(db, recursive, &mined);

  std::printf(
      "{\"experiment\":\"skewed_fpgrowth_scheduler\",\"transactions\":%zu,"
      "\"hardware_threads\":%u,\"scheduler_threads\":%zu,"
      "\"itemsets\":%zu,\"serial_ms\":%.3f,\"toplevel_only_ms\":%.3f,"
      "\"recursive_ms\":%.3f,\"speedup_vs_serial\":%.3f,"
      "\"speedup_vs_toplevel\":%.3f,\"metrics\":%s}\n",
      db.size(), hw, threads, mined.itemsets.size(), serial_ms, toplevel_ms,
      recursive_ms, serial_ms / recursive_ms, toplevel_ms / recursive_ms,
      render_json(mined.metrics).c_str());
  std::fflush(stdout);
}

// CI bench-smoke: times the skewed trace at a CI-friendly size and
// writes one BENCH_*.json trajectory record ({pr, commit, serial_ms,
// recursive_ms, peak_arena_bytes}) so every PR appends a comparable
// point. Returns a process exit code.
int run_bench_smoke(const char* path, long pr, const char* commit) {
  const auto db = make_skewed_db(8000, 7);
  const std::size_t threads =
      std::max<std::size_t>(4, std::thread::hardware_concurrency());

  core::MiningParams serial = params();
  serial.min_support = 0.02;
  serial.num_threads = 1;

  core::MiningParams recursive = serial;
  recursive.num_threads = threads;
  recursive.spawn_cutoff_nodes = 64;

  const double serial_ms = time_ms(db, serial);
  core::MiningResult mined;
  const double recursive_ms = time_ms(db, recursive, &mined);

  // Regression gate: parallel dispatch must never lose to serial. Below
  // the serial_cutoff_items work threshold the miner falls back to the
  // serial path, so this holds even on a single-core runner.
  const double speedup = serial_ms / recursive_ms;
  if (speedup < 0.95) {
    std::fprintf(stderr,
                 "FAIL: parallel mining regressed vs serial "
                 "(%.3f ms vs %.3f ms, speedup %.2f < 0.95)\n",
                 recursive_ms, serial_ms, speedup);
    return 1;
  }

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(out,
               "{\"pr\":%ld,\"commit\":\"%s\",\"serial_ms\":%.3f,"
               "\"recursive_ms\":%.3f,\"speedup\":%.3f,"
               "\"peak_arena_bytes\":%zu}\n",
               pr, commit, serial_ms, recursive_ms, speedup,
               mined.metrics.peak_arena_bytes);
  std::fclose(out);
  std::printf("bench-smoke: serial %.3f ms, recursive %.3f ms (x%zu), "
              "peak arena %zu bytes -> %s\n",
              serial_ms, recursive_ms, threads,
              mined.metrics.peak_arena_bytes, path);
  return 0;
}

void BM_FpGrowth(benchmark::State& state) {
  const auto db = make_db(static_cast<std::size_t>(state.range(0)), 36,
                          static_cast<double>(state.range(1)) / 100.0, 7);
  std::size_t itemsets = 0;
  for (auto _ : state) {
    const auto result = core::mine_fpgrowth(db, params());
    itemsets = result.itemsets.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["itemsets"] = static_cast<double>(itemsets);
}
BENCHMARK(BM_FpGrowth)
    ->Args({2000, 25})
    ->Args({2000, 45})
    ->Args({10000, 25})
    ->Args({10000, 45})
    ->Unit(benchmark::kMillisecond);

void BM_FpGrowthParallel(benchmark::State& state) {
  const auto db = make_skewed_db(10000, 7);
  core::MiningParams p = params();
  p.min_support = 0.02;
  p.num_threads = static_cast<std::size_t>(state.range(0));
  std::uint64_t stolen = 0;
  for (auto _ : state) {
    const auto result = core::mine_fpgrowth(db, p);
    stolen = result.metrics.tasks_stolen;
    benchmark::DoNotOptimize(result);
  }
  state.counters["tasks_stolen"] = static_cast<double>(stolen);
}
BENCHMARK(BM_FpGrowthParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_SlidingWindowMine(benchmark::State& state) {
  const auto db = make_db(4000, 36, 0.45, 7);
  core::SlidingWindowMiner miner(2000, params());
  for (std::size_t t = 0; t < db.size(); ++t) {
    const auto txn = db[t];
    miner.push(core::Itemset(txn.begin(), txn.end()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(miner.mine());
  }
}
BENCHMARK(BM_SlidingWindowMine)->Unit(benchmark::kMillisecond);

void BM_LossyCounterPush(benchmark::State& state) {
  const auto db = make_db(10000, 36, 0.45, 7);
  for (auto _ : state) {
    core::LossyCounter counter(0.001);
    for (std::size_t t = 0; t < db.size(); ++t) {
      counter.push(db[t]);
    }
    benchmark::DoNotOptimize(counter.frequent(0.05));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(db.size()));
}
BENCHMARK(BM_LossyCounterPush)->Unit(benchmark::kMillisecond);

void BM_RuleGeneration(benchmark::State& state) {
  const auto db = make_db(10000, 36, 0.45, 7);
  const auto mined = core::mine_fpgrowth(db, params());
  core::RuleParams rp;
  rp.min_lift = 1.5;
  std::size_t rules = 0;
  for (auto _ : state) {
    const auto out = core::generate_rules(mined, rp);
    rules = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rules"] = static_cast<double>(rules);
}
BENCHMARK(BM_RuleGeneration)->Unit(benchmark::kMillisecond);

void BM_KeywordPruning(benchmark::State& state) {
  const auto db = make_db(10000, 36, 0.45, 7);
  const auto mined = core::mine_fpgrowth(db, params());
  core::RuleParams rp;
  rp.min_lift = 1.0;  // larger input set for the pruner
  const auto all = core::generate_rules(mined, rp);
  const auto keyed = core::filter_keyword(all, /*keyword=*/0);
  std::size_t kept = 0;
  for (auto _ : state) {
    const auto out = core::prune_rules(keyed, 0, core::PruneParams{});
    kept = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["input_rules"] = static_cast<double>(keyed.size());
  state.counters["kept_rules"] = static_cast<double>(kept);
}
BENCHMARK(BM_KeywordPruning)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main. `--smoke-json=PATH [--smoke-pr=N] [--smoke-commit=SHA]`
// runs only the CI bench-smoke and writes the trajectory record there.
// Otherwise the scheduler experiment prints its JSON line first, then
// the regular google-benchmark suite runs.
int main(int argc, char** argv) {
  const char* smoke_json = nullptr;
  long smoke_pr = 0;
  const char* smoke_commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--smoke-json=")) {
      smoke_json = argv[i] + std::string_view("--smoke-json=").size();
    } else if (arg.starts_with("--smoke-pr=")) {
      smoke_pr = std::strtol(argv[i] + std::string_view("--smoke-pr=").size(),
                             nullptr, 10);
    } else if (arg.starts_with("--smoke-commit=")) {
      smoke_commit = argv[i] + std::string_view("--smoke-commit=").size();
    }
  }
  if (smoke_json != nullptr) {
    return run_bench_smoke(smoke_json, smoke_pr, smoke_commit);
  }

  run_scheduler_experiment();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
