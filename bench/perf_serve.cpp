// Serving-path performance: cached keyword queries through
// serve::RequestHandler, single- vs multi-threaded (google-benchmark).
//
// Doubles as the CI bench-smoke for the serve subsystem: builds a
// rule snapshot from the 60k-job synthetic PAI trace, round-trips it
// through the v2 binary format, then drives the handler in-process (no
// sockets, so the measurement is the serving path itself: URL decode,
// hash lookup, response copy, metrics). Asserts that every response is
// byte-identical across thread counts and across a hot reload, lints
// the /metrics exposition and pins its series set across thread
// counts, gates on sustained throughput and p99 latency at 8 threads
// — plain and with the observability stack (slow-query timestamping +
// flight recording) enabled — and writes one BENCH_*.json record.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "bench_util.hpp"
#include "common/flight.hpp"
#include "common/metrics.hpp"
#include "core/snapshot.hpp"
#include "serve/handler.hpp"
#include "serve/query_engine.hpp"
#include "synth/pai.hpp"

namespace {

using namespace gpumine;

// ---------------------------------------------------------------------
// Fixture: synthetic PAI trace -> canonical prep -> mined snapshot.

core::RuleSnapshot make_snapshot(std::size_t num_jobs) {
  synth::PaiConfig config;
  config.num_jobs = num_jobs;
  const analysis::WorkflowConfig workflow = analysis::pai_config();
  auto mined = analysis::mine(synth::generate_pai(config).merged(), workflow);
  return core::build_rule_snapshot(std::move(mined.mined),
                                   std::move(mined.prepared.catalog),
                                   workflow.rules, workflow.pruning);
}

std::string percent_encode(const std::string& text) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  for (const char c : text) {
    const bool unreserved = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                            c == '.' || c == '~';
    if (unreserved) {
      out += c;
    } else {
      const auto byte = static_cast<unsigned char>(c);
      out += '%';
      out += hex[byte >> 4];
      out += hex[byte & 0xF];
    }
  }
  return out;
}

// The request mix: one /query target per catalog item, in catalog
// order, cycled by every load pass.
std::vector<std::string> make_targets(const serve::QueryEngine& engine) {
  std::vector<std::string> targets;
  for (const std::string& name : engine.keyword_names()) {
    targets.push_back("/query?keyword=" + percent_encode(name));
  }
  return targets;
}

double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

// Drives `total_requests` through the handler on `num_threads` client
// threads, cycling the target list. When `expected` is given, every
// response body is compared against it and mismatches are counted
// (responses must not depend on which thread serves them). Returns
// wall seconds.
double run_pass(serve::RequestHandler& handler,
                const std::vector<std::string>& targets,
                std::size_t num_threads, std::size_t total_requests,
                const std::vector<std::string>* expected,
                std::atomic<std::uint64_t>* mismatches) {
  const auto begin = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    const std::size_t first = t * total_requests / num_threads;
    const std::size_t last = (t + 1) * total_requests / num_threads;
    threads.emplace_back([&, first, last] {
      for (std::size_t i = first; i < last; ++i) {
        const std::size_t slot = i % targets.size();
        const serve::HttpResponse response =
            handler.handle("GET", targets[slot]);
        if (expected != nullptr && response.body != (*expected)[slot]) {
          mismatches->fetch_add(1, std::memory_order_relaxed);
        }
        benchmark::DoNotOptimize(response.body.data());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return seconds_since(begin);
}

// CI bench-smoke for the serving path. Returns a process exit code.
int run_bench_smoke(const char* path, long pr, const char* commit,
                    std::size_t jobs) {
  constexpr std::size_t kServeThreads = 8;
  constexpr std::size_t kRequests = 120000;

  // Build, persist, and re-load the snapshot: the engine under test is
  // the one a real `gpumine serve` process would build from disk.
  const core::RuleSnapshot built = make_snapshot(jobs);
  const std::string snapshot_path = std::string(path) + ".snapshot.tmp";
  const auto save_begin = std::chrono::steady_clock::now();
  const auto saved = core::save_rule_snapshot_file(built, snapshot_path);
  const double save_ms = seconds_since(save_begin) * 1e3;
  if (!saved.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", saved.error().to_string().c_str());
    return 1;
  }
  const auto load_begin = std::chrono::steady_clock::now();
  auto loaded = core::load_rule_snapshot_file(snapshot_path);
  const double load_ms = seconds_since(load_begin) * 1e3;
  if (!loaded.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", loaded.error().to_string().c_str());
    return 1;
  }

  const auto build_begin = std::chrono::steady_clock::now();
  auto engine = std::make_shared<const serve::QueryEngine>(
      std::move(loaded).value());
  const double engine_build_ms = seconds_since(build_begin) * 1e3;
  if (engine->num_rules() == 0 || engine->num_keywords_with_rules() == 0) {
    std::fprintf(stderr, "FAIL: snapshot has no rules to serve\n");
    return 1;
  }

  serve::RequestHandler handler(engine, snapshot_path);
  const std::vector<std::string> targets = make_targets(*engine);

  // Reference pass: one single-threaded sweep records the expected body
  // for every target (and checks the handler agrees with itself).
  std::vector<std::string> expected;
  expected.reserve(targets.size());
  for (const std::string& target : targets) {
    expected.push_back(handler.handle("GET", target).body);
  }

  // Correctness sweeps (untimed): every response at 1 and at 8 client
  // threads must be byte-identical to the reference.
  std::atomic<std::uint64_t> mismatches{0};
  run_pass(handler, targets, 1, 2 * targets.size(), &expected, &mismatches);
  run_pass(handler, targets, kServeThreads, kRequests, &expected,
           &mismatches);
  if (mismatches.load() != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu responses differed across thread counts\n",
                 static_cast<unsigned long long>(mismatches.load()));
    return 1;
  }

  // Hot reload must not change any answer (same snapshot file).
  const auto reload_begin = std::chrono::steady_clock::now();
  const auto reloaded = handler.reload();
  const double reload_ms = seconds_since(reload_begin) * 1e3;
  if (!reloaded.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", reloaded.error().to_string().c_str());
    return 1;
  }
  run_pass(handler, targets, kServeThreads, targets.size(), &expected,
           &mismatches);
  if (mismatches.load() != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu responses changed across a reload of the "
                 "same snapshot\n",
                 static_cast<unsigned long long>(mismatches.load()));
    return 1;
  }

  // /metrics scrape: the exposition must pass the in-repo lint, and the
  // set of series names must not depend on how much traffic ran or on
  // how many threads served it — every series is pre-registered per
  // endpoint, never created on first hit.
  std::size_t metrics_series = 0;
  const auto scrape_series = [&](std::vector<std::string>* names) -> bool {
    const serve::HttpResponse scraped = handler.handle("GET", "/metrics");
    if (scraped.status != 200) {
      std::fprintf(stderr, "FAIL: GET /metrics returned %d\n",
                   scraped.status);
      return false;
    }
    const auto linted = validate_prometheus_text(scraped.body);
    if (!linted.ok()) {
      std::fprintf(stderr, "FAIL: /metrics exposition invalid: %s\n",
                   linted.error().to_string().c_str());
      return false;
    }
    metrics_series = linted.value();
    names->clear();
    std::size_t begin = 0;
    while (begin < scraped.body.size()) {
      std::size_t end = scraped.body.find('\n', begin);
      if (end == std::string::npos) end = scraped.body.size();
      const std::string line = scraped.body.substr(begin, end - begin);
      if (!line.empty() && line[0] != '#') {
        names->push_back(line.substr(0, line.find(' ')));
      }
      begin = end + 1;
    }
    return true;
  };

  // Timed passes (no comparisons on the hot loop), with a scrape after
  // the single-threaded and after the multi-threaded pass.
  const double seconds_1t = run_pass(handler, targets, 1, kRequests, nullptr,
                                     nullptr);
  std::vector<std::string> series_after_1t;
  if (!scrape_series(&series_after_1t)) return 1;
  const double seconds_8t = run_pass(handler, targets, kServeThreads,
                                     kRequests, nullptr, nullptr);
  std::vector<std::string> series_after_8t;
  if (!scrape_series(&series_after_8t)) return 1;
  if (series_after_1t != series_after_8t) {
    std::fprintf(stderr,
                 "FAIL: /metrics series set changed across thread counts "
                 "(%zu vs %zu samples)\n",
                 series_after_1t.size(), series_after_8t.size());
    return 1;
  }
  const double qps_1t = static_cast<double>(kRequests) / seconds_1t;
  const double qps_8t = static_cast<double>(kRequests) / seconds_8t;

  // Observability overhead gate, same methodology as PR 8's
  // disabled-tracer gate: best-of-5 minimums of the same 8-thread pass
  // in three configurations. The baseline is the default serving path
  // (per-request metrics recording, slow query log off). The "enabled"
  // pass arms the full stack — slow-query timestamping (threshold high
  // enough that the log itself never fires) plus flight-ring span
  // recording — and only has a sanity ceiling: recording real spans
  // may legitimately cost a few percent. The hard 2% gate is on the
  // default path RE-MEASURED after the stack ran, pricing in any state
  // the enabled passes left behind (registered flight rings).
  // The reps are INTERLEAVED (plain, enabled, plain-after per round)
  // rather than grouped best-of blocks: 8 client threads on a shared
  // single-core runner drift by several percent over the seconds this
  // takes, and interleaving spreads that drift across all three minima
  // instead of charging it to whichever configuration ran last.
  constexpr std::size_t kOverheadRequests = 60000;
  const auto timed_pass = [&] {
    const auto begin = std::chrono::steady_clock::now();
    run_pass(handler, targets, kServeThreads, kOverheadRequests, nullptr,
             nullptr);
    return seconds_since(begin) * 1e3;
  };
  double plain_ms = 1e300;
  double observed_ms = 1e300;
  double plain_after_ms = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    plain_ms = std::min(plain_ms, timed_pass());
    handler.set_slow_query_ns(std::uint64_t{1000} * 1000 * 1000);  // 1 s
    FlightRecorder::instance().enable_recording();
    observed_ms = std::min(observed_ms, timed_pass());
    FlightRecorder::instance().disable_recording();
    handler.set_slow_query_ns(0);
    plain_after_ms = std::min(plain_after_ms, timed_pass());
  }
  const double qps_8t_observed =
      static_cast<double>(kOverheadRequests) / (observed_ms / 1e3);
  const double overhead_pct =
      (observed_ms - plain_ms) / plain_ms * 100.0;
  const double budget_ms = std::max(0.02 * plain_ms, 25.0);
  if (observed_ms - plain_ms > 25.0 * budget_ms) {
    // Sanity ceiling only: enabled flight recording writes real ring
    // entries and may legitimately cost a few percent.
    std::fprintf(stderr,
                 "FAIL: enabled observability cost %.1f ms over a %.1f ms "
                 "baseline\n",
                 observed_ms - plain_ms, plain_ms);
    return 1;
  }
  if (plain_after_ms - plain_ms > budget_ms) {
    std::fprintf(stderr,
                 "FAIL: steady-state metrics overhead %.2f%% (%.1f ms vs "
                 "%.1f ms) exceeds 2%% budget (+%.1f ms slack)\n",
                 (plain_after_ms - plain_ms) / plain_ms * 100.0,
                 plain_after_ms, plain_ms, budget_ms);
    return 1;
  }

  // Latency distribution over everything this process served.
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  for (const auto& endpoint : handler.metrics().snapshot().endpoints) {
    if (endpoint.name == "query") {
      p50_us = endpoint.p50_us;
      p95_us = endpoint.p95_us;
      p99_us = endpoint.p99_us;
    }
  }

  std::remove(snapshot_path.c_str());

  // Acceptance gates: the cached-query path must sustain 50k requests/s
  // at 8 server threads, with a p99 under 10 ms. Both hold with slack
  // even on shared single-core runners — the serving path is a hash
  // lookup plus one response copy.
  if (qps_8t < 50000.0) {
    std::fprintf(stderr, "FAIL: %.0f qps at 8 threads < 50000\n", qps_8t);
    return 1;
  }
  if (qps_8t_observed < 50000.0) {
    std::fprintf(stderr,
                 "FAIL: %.0f qps at 8 threads with metrics + slow-query "
                 "enabled < 50000\n",
                 qps_8t_observed);
    return 1;
  }
  if (p99_us > 10000.0) {
    std::fprintf(stderr, "FAIL: query p99 %.0f us > 10000 us\n", p99_us);
    return 1;
  }

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(
      out,
      "{\"pr\":%ld,\"commit\":\"%s\",\"jobs\":%zu,\"items\":%zu,"
      "\"itemsets\":%zu,\"rules\":%zu,\"keywords_with_rules\":%zu,"
      "\"snapshot_save_ms\":%.3f,\"snapshot_load_ms\":%.3f,"
      "\"engine_build_ms\":%.3f,\"reload_ms\":%.3f,\"requests\":%zu,"
      "\"qps_1t\":%.0f,\"qps_8t\":%.0f,\"qps_8t_observed\":%.0f,"
      "\"observability_overhead_pct\":%.2f,\"metrics_series\":%zu,"
      "\"p50_us\":%.3f,\"p95_us\":%.3f,\"p99_us\":%.3f}\n",
      pr, commit, jobs, engine->catalog().size(), engine->num_itemsets(),
      engine->num_rules(), engine->num_keywords_with_rules(), save_ms,
      load_ms, engine_build_ms, reload_ms, kRequests, qps_1t, qps_8t,
      qps_8t_observed, overhead_pct, metrics_series, p50_us, p95_us, p99_us);
  std::fclose(out);
  std::printf(
      "bench-smoke: %zu jobs -> %zu rules over %zu items, snapshot "
      "save/load %.1f/%.1f ms, engine build %.1f ms, reload %.1f ms, "
      "%.0f qps at 1 thread, %.0f qps at 8 threads (%.0f with metrics + "
      "slow-query on, %+.2f%% overhead), %zu metric series, query "
      "p50/p95/p99 %.1f/%.1f/%.1f us -> %s\n",
      jobs, engine->num_rules(), engine->catalog().size(), save_ms, load_ms,
      engine_build_ms, reload_ms, qps_1t, qps_8t, qps_8t_observed,
      overhead_pct, metrics_series, p50_us, p95_us, p99_us, path);
  return 0;
}

// ---------------------------------------------------------------------
// google-benchmark suite (smaller fixture; the smoke uses 60k jobs).

serve::RequestHandler& shared_handler() {
  static auto* handler = [] {
    auto engine = std::make_shared<const serve::QueryEngine>(
        make_snapshot(10000));
    return new serve::RequestHandler(std::move(engine), "");
  }();
  return *handler;
}

void BM_QueryCached(benchmark::State& state) {
  serve::RequestHandler& handler = shared_handler();
  const std::vector<std::string> targets =
      make_targets(*handler.engine());
  std::size_t i = 0;
  for (auto _ : state) {
    const serve::HttpResponse response =
        handler.handle("GET", targets[i++ % targets.size()]);
    benchmark::DoNotOptimize(response.body.data());
  }
}
BENCHMARK(BM_QueryCached);

void BM_SupportProbe(benchmark::State& state) {
  serve::RequestHandler& handler = shared_handler();
  const std::string name = handler.engine()->keyword_names().front();
  const std::string target = "/support?items=" + percent_encode(name);
  for (auto _ : state) {
    const serve::HttpResponse response = handler.handle("GET", target);
    benchmark::DoNotOptimize(response.body.data());
  }
}
BENCHMARK(BM_SupportProbe);

void BM_StatsSnapshot(benchmark::State& state) {
  serve::RequestHandler& handler = shared_handler();
  for (auto _ : state) {
    const serve::HttpResponse response = handler.handle("GET", "/stats");
    benchmark::DoNotOptimize(response.body.data());
  }
}
BENCHMARK(BM_StatsSnapshot);

}  // namespace

// Custom main, mirroring perf_mining.cpp:
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
