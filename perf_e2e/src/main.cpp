// perf_e2e: the end-to-end benchmark of gpumine. A seeded synthetic trace
// is written to a CSV on disk, then timed through the library's public
// calls to a pruned keyword answer, to a snapshot file, and to replies
// on a loopback socket. README.md in this directory defines the
// workloads and every metric; run.py builds this program and runs it.
//
//   perf_e2e --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs with the
// Tracer on, writes DIR/trace-NAME-seedN.json and reports the per-layer
// metrics derived from its spans. The last line on stdout is one JSON
// object with the keys correct, attempted, failed and metrics.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/export.hpp"
#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "client.hpp"
#include "common/trace.hpp"
#include "core/miner.hpp"
#include "core/snapshot.hpp"
#include "mix.hpp"
#include "prep/csv.hpp"
#include "serve/handler.hpp"
#include "serve/query_engine.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "synth/pai.hpp"
#include "synth/philly.hpp"
#include "synth/supercloud.hpp"

namespace {

using namespace gpumine;
using namespace perf_e2e;
using Clock = std::chrono::steady_clock;

// Fixed settings. None is auto-detected, so a run means the same thing on
// any machine with at least four cores.
constexpr std::size_t kThreads = 4;  // prep, mining, rules; server workers
constexpr std::size_t kLineClients = 2;
constexpr std::size_t kSetupRepeats = 3;
// Linux acknowledges the first segments of a connection at once, so the
// first replies skip today's delayed-ACK stall; they are discarded.
constexpr std::size_t kConnectionWarmup = 8;
constexpr std::size_t kHttpWarmup = 32;
constexpr std::size_t kMixLength = 8192;
constexpr std::size_t kMinPasses = 3;  // per batch phase, after warm-up
constexpr double kStalledMs = 10.0;
constexpr double kTail = 0.99;
const char* const kKeyword = "SM Util = 0%";

double ms_since(Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - begin)
      .count();
}

double cpu_ms() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

// VmHWM of this process in MB. Unlike getrusage's ru_maxrss, it starts
// afresh at exec instead of carrying over the parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

template <typename T>
T unwrap(Result<T> result, const std::string& what) {
  if (!result.ok()) {
    throw std::runtime_error(what + ": " + result.error().to_string());
  }
  return std::move(result).value();
}

// ---------------------------------------------------------------------
// Workloads.

struct Plan {  // shares of --seconds per phase of the untraced run
  double batch;  // analyze and publish passes, alternating
  double serve;
  double reload;
};

struct Workload {
  const char* name;
  std::size_t jobs;
  synth::SynthTrace (*generate)(std::size_t jobs, std::uint64_t seed);
  analysis::WorkflowConfig (*config)();
  Plan plan;
};

synth::SynthTrace make_pai(std::size_t jobs, std::uint64_t seed) {
  synth::PaiConfig config;
  config.num_jobs = jobs;
  config.seed = seed;
  return synth::generate_pai(config);
}

synth::SynthTrace make_philly(std::size_t jobs, std::uint64_t seed) {
  synth::PhillyConfig config;
  config.num_jobs = jobs;
  config.seed = seed;
  return synth::generate_philly(config);
}

synth::SynthTrace make_supercloud(std::size_t jobs, std::uint64_t seed) {
  synth::SuperCloudConfig config;
  config.num_jobs = jobs;
  config.seed = seed;
  return synth::generate_supercloud(config);
}

// Why each workload exists is in README.md. At today's 44 ms line stall,
// two line clients complete about 45 requests a second, and a p99 needs
// 902 samples to have ten beyond it: each socket phase gets at least
// 20 s of a 50 s run.
const Workload kWorkloads[] = {
    {"pai-200k", 200000, make_pai, analysis::pai_config,
     {0.20, 0.40, 0.40}},
    {"philly-40k", 40000, make_philly, analysis::philly_config,
     {0.10, 0.45, 0.45}},
    {"supercloud-40k", 40000, make_supercloud, analysis::supercloud_config,
     {0.10, 0.45, 0.45}},
};

// ---------------------------------------------------------------------
// Options.

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
};

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) options.workload = &w;
      }
      if (options.workload == nullptr) {
        throw std::invalid_argument("unknown workload '" + value + "'");
      }
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (options.workload == nullptr || !have_seed || !(options.seconds > 0) ||
      options.work_dir.empty()) {
    throw std::invalid_argument(
        "usage: perf_e2e --workload NAME --seed N --seconds S --trace 0|1 "
        "--work-dir DIR");
  }
  return options;
}

// ---------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;  // 0 for counts and derived values
  std::optional<Quartiles> spread;
  bool in_result = true;  // false: printed, but not in the JSON line
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples, {}});
  }
  void add(std::string name, const Timing& timing, bool tail,
           std::string unit, bool in_result = true) {
    metrics_.push_back({std::move(name), tail ? timing.tail : timing.median,
                        std::move(unit), timing.samples,
                        tail ? std::nullopt
                             : std::optional<Quartiles>(timing.spread),
                        in_result});
  }

  void print_table() const {
    std::printf("%-26s %16s %-6s %8s %14s %14s\n", "metric", "value", "unit",
                "samples", "q1", "q3");
    for (const Metric& m : metrics_) {
      std::printf("%-26s %16.4f %-6s %8zu", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
      if (m.spread) std::printf(" %14.4f %14.4f", m.spread->q1, m.spread->q3);
      if (!m.in_result) std::printf("  (printed only; see README)");
      std::printf("\n");
    }
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const Metric& m : metrics_) {
      if (!m.in_result) continue;
      if (out.size() > 1) out += ", ";
      if (!std::isfinite(m.value)) {
        throw std::runtime_error(m.name + " is not a finite number");
      }
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", m.value);
      out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// Per-phase ledger of attempted and failed operations.
class Ledger {
 public:
  Tally& phase(const std::string& name) {
    for (auto& [phase, tally] : phases_) {
      if (phase == name) return tally;
    }
    phases_.emplace_back(name, Tally{});
    return phases_.back().second;
  }
  void record(const std::string& name, Outcome outcome) {
    phase(name).record(outcome);
  }
  void fail_unless(const std::string& name, bool ok) {
    record(name, ok ? Outcome::kOk : Outcome::kMismatch);
  }
  [[nodiscard]] Tally total() const {
    Tally sum;
    for (const auto& [phase, tally] : phases_) sum.merge(tally);
    return sum;
  }
  void print() const {
    std::printf("%-12s %10s %8s %10s\n", "phase", "attempted", "failed",
                "mismatched");
    for (const auto& [phase, tally] : phases_) {
      std::printf("%-12s %10llu %8llu %10llu\n", phase.c_str(),
                  static_cast<unsigned long long>(tally.attempted),
                  static_cast<unsigned long long>(tally.failed),
                  static_cast<unsigned long long>(tally.mismatched));
    }
  }

 private:
  std::vector<std::pair<std::string, Tally>> phases_;
};

// ---------------------------------------------------------------------
// Set-up: generate the seeded trace and write it to the CSV on disk.

struct Input {
  std::string csv_path;
  std::uint64_t csv_bytes = 0;
  Timing setup_s;
};

Input set_up(const Workload& workload, std::uint64_t seed,
             const std::string& dir, Ledger& ledger) {
  Input input;
  input.csv_path = dir + "/trace.csv";
  std::vector<double> seconds;
  std::uint64_t first_hash = 0;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    const auto begin = Clock::now();
    {
      const prep::Table table = workload.generate(workload.jobs, seed).merged();
      unwrap(prep::write_csv_file(table, input.csv_path), "write CSV");
    }
    seconds.push_back(ms_since(begin) / 1e3);
    const std::string bytes = read_file(input.csv_path);
    const std::uint64_t hash = fnv1a(bytes);
    if (rep == 0) first_hash = hash;
    ledger.fail_unless("setup", hash == first_hash);
    input.csv_bytes = bytes.size();
  }
  input.setup_s = summarize(seconds);
  return input;
}

// ---------------------------------------------------------------------
// The batch paths, each call wrapped in a span named after its layer.
// The spans cost one relaxed load while the Tracer is off.

struct Pipeline {
  prep::CsvParams csv;
  analysis::WorkflowConfig config;
};

struct Front {
  analysis::PreparedTrace prepared;
  core::TransactionDb deduped;
  core::MiningResult mined;
};

Front front_half(const std::string& csv_path, const Pipeline& pipeline) {
  Front front;
  prep::Table table;
  {
    Span span("prep.csv");
    table = unwrap(prep::read_csv_file(csv_path, pipeline.csv), "read CSV");
  }
  {
    Span span("prep.prepare");
    front.prepared = analysis::prepare(std::move(table), pipeline.config);
  }
  {
    Span span("core.dedup");
    front.deduped = front.prepared.db.dedup();
  }
  {
    Span span("core.mine");
    front.mined = core::mine_frequent(front.deduped, pipeline.config.mining,
                                      pipeline.config.algorithm);
  }
  return front;
}

// What one pass produced; must repeat exactly across passes.
struct Shape {
  std::size_t items = 0;
  std::size_t itemsets = 0;
  std::uint64_t rules = 0;  // generated (analyze) or in the snapshot
  std::uint64_t kept = 0;
  std::uint64_t answer_hash = 0;  // JSON answer or snapshot file bytes
  bool operator==(const Shape&) const = default;
};

struct AnalyzePass {
  double ms = 0.0;
  double cpu_ms = 0.0;
  Shape shape;
  std::string json;
  std::uint64_t prune_pair_tests = 0;
  double dedup_ratio = 0.0;
  core::MiningMetrics mining;
};

AnalyzePass analyze_pass(const std::string& csv_path,
                         const Pipeline& pipeline) {
  AnalyzePass pass;
  const double cpu_begin = cpu_ms();
  const auto begin = Clock::now();
  Front front = front_half(csv_path, pipeline);
  const auto keyword = front.prepared.catalog.find(kKeyword);
  if (!keyword) {
    throw std::runtime_error(std::string("keyword '") + kKeyword +
                             "' is not an item of this workload");
  }
  core::KeywordAnalysis analysis;
  {
    Span span("core.rules");
    analysis = core::analyze_keyword(front.mined, *keyword,
                                     pipeline.config.rules,
                                     pipeline.config.pruning);
  }
  {
    Span span("analysis.render");
    pass.json = analysis::rules_to_json(analysis, front.prepared.catalog);
  }
  pass.ms = ms_since(begin);
  pass.cpu_ms = cpu_ms() - cpu_begin;
  pass.shape = {front.prepared.catalog.size(), front.mined.itemsets.size(),
                analysis.stage.rules_generated, analysis.stage.rules_kept,
                fnv1a(pass.json)};
  pass.prune_pair_tests = analysis.stage.prune_pair_comparisons;
  pass.dedup_ratio = static_cast<double>(front.prepared.db.size()) /
                     static_cast<double>(front.deduped.size());
  pass.mining = front.mined.metrics;
  return pass;
}

struct PublishPass {
  double ms = 0.0;
  Shape shape;
  std::uint64_t file_bytes = 0;
};

PublishPass publish_pass(const std::string& csv_path,
                         const std::string& snapshot_path,
                         const Pipeline& pipeline) {
  PublishPass pass;
  const auto begin = Clock::now();
  Front front = front_half(csv_path, pipeline);
  core::RuleSnapshot snapshot;
  {
    Span span("core.snapshot_build");
    snapshot = core::build_rule_snapshot(
        std::move(front.mined), std::move(front.prepared.catalog),
        pipeline.config.rules, pipeline.config.pruning);
  }
  {
    Span span("core.snapshot_save");
    unwrap(core::save_rule_snapshot_file(snapshot, snapshot_path),
           "save snapshot");
  }
  pass.ms = ms_since(begin);
  pass.shape = {snapshot.catalog.size(), snapshot.result.itemsets.size(),
                snapshot.rules.size(), 0, 0};
  return pass;
}

// Reads the written snapshot back into the pass's shape, after timing.
PublishPass fingerprint(PublishPass pass, const std::string& snapshot_path) {
  const std::string bytes = read_file(snapshot_path);
  pass.file_bytes = bytes.size();
  pass.shape.answer_hash = fnv1a(bytes);
  return pass;
}

// Runs `pass(false)` once to warm up (discarded), then `pass(true)` until
// `budget_s` is spent and at least kMinPasses passes were kept, or until
// `max_passes` were kept.
template <typename Pass>
void run_batch(double budget_s, const std::function<Pass(bool)>& pass,
               std::vector<Pass>& kept,
               std::size_t max_passes = static_cast<std::size_t>(-1)) {
  const auto begin = Clock::now();
  (void)pass(false);
  while (kept.size() < max_passes &&
         (kept.size() < kMinPasses || ms_since(begin) < budget_s * 1e3)) {
    kept.push_back(pass(true));
  }
}

// ---------------------------------------------------------------------
// The served path.

struct Answers {
  std::vector<std::string> body;  // per Mix::targets entry
  std::vector<std::string> line;  // body as a line reply
};

Answers reference_answers(
    const std::shared_ptr<const serve::QueryEngine>& engine, const Mix& mix) {
  // A handler of its own, so the server's /stats only sees socket traffic.
  serve::RequestHandler reference(engine, "");
  Answers answers;
  for (const std::string& target : mix.targets) {
    const serve::HttpResponse response = reference.handle("GET", target);
    if (response.status != 200) {
      throw std::runtime_error("mix request " + target + " answered " +
                               std::to_string(response.status));
    }
    answers.body.push_back(response.body);
    answers.line.push_back(response.body.empty() ||
                                   response.body.back() != '\n'
                               ? response.body + "\n"
                               : response.body);
  }
  return answers;
}

Mix mix_for(const core::RuleSnapshot& snapshot, std::uint64_t seed) {
  std::vector<std::string> items;
  for (core::ItemId id = 0; id < snapshot.catalog.size(); ++id) {
    items.push_back(snapshot.catalog.name(id));
  }
  std::vector<std::vector<std::string>> itemsets;
  for (const core::FrequentItemset& set : snapshot.result.itemsets) {
    std::vector<std::string> names;
    for (const core::ItemId id : set.items) {
      names.push_back(snapshot.catalog.name(id));
    }
    itemsets.push_back(std::move(names));
  }
  return make_mix(items, itemsets, seed, kMixLength);
}

// One client thread's view of a socket phase.
struct ClientResult {
  std::vector<double> latency;  // µs for requests, ms for reloads
  Tally tally;
  std::uint64_t counted = 0;  // successful requests after warm-up
  double window_s = 0.0;      // from the end of warm-up to the last reply
  std::exception_ptr error;
};

void line_client(std::uint16_t port, const Mix& mix, const Answers& answers,
                 std::size_t offset, Clock::time_point deadline,
                 ClientResult& out) {
  auto client = std::make_unique<LineClient>(port);
  std::string reply;
  std::size_t warm = 0;
  Clock::time_point window_begin{};
  Clock::time_point window_end{};
  for (std::size_t i = offset; Clock::now() < deadline; ++i) {
    const MixRequest& request = mix.requests[i % mix.requests.size()];
    if (!client->connected()) client = std::make_unique<LineClient>(port);
    const auto begin = Clock::now();
    const bool ok = client->request(request.line, reply);
    const auto end = Clock::now();
    Outcome outcome = Outcome::kError;
    if (ok) {
      outcome = reply == answers.line[request.answer] ? Outcome::kOk
                                                      : Outcome::kMismatch;
    }
    out.tally.record(outcome);
    if (warm < kConnectionWarmup) {
      if (++warm == kConnectionWarmup) window_begin = end;
      continue;
    }
    out.latency.push_back(
        outcome == Outcome::kOk
            ? std::chrono::duration<double, std::micro>(end - begin).count()
            : kMissed);
    if (outcome == Outcome::kOk) ++out.counted;
    window_end = end;
  }
  if (window_end > window_begin) {
    out.window_s =
        std::chrono::duration<double>(window_end - window_begin).count();
  }
}

Outcome http_outcome(const HttpReply& reply, const std::string& expected) {
  if (!reply.ok) return Outcome::kError;
  if (reply.status < 200 || reply.status >= 300) return Outcome::kStatus;
  return reply.body == expected ? Outcome::kOk : Outcome::kMismatch;
}

void http_client(std::uint16_t port, const Mix& mix, const Answers& answers,
                 std::size_t offset, Clock::time_point deadline,
                 ClientResult& out) {
  std::size_t warm = 0;
  for (std::size_t i = offset; Clock::now() < deadline; ++i) {
    const MixRequest& request = mix.requests[i % mix.requests.size()];
    const auto begin = Clock::now();
    const HttpReply reply = http_once(port, "GET", request.target);
    const auto end = Clock::now();
    const Outcome outcome =
        http_outcome(reply, answers.body[request.answer]);
    out.tally.record(outcome);
    if (warm < kHttpWarmup) {
      ++warm;
      continue;
    }
    out.latency.push_back(
        outcome == Outcome::kOk
            ? std::chrono::duration<double, std::micro>(end - begin).count()
            : kMissed);
  }
}

void reload_client(std::uint16_t port, std::uint64_t rules,
                   Clock::time_point deadline, ClientResult& out) {
  const std::string expected =
      "{\"reloaded\":true,\"rules\":" + std::to_string(rules) + "}";
  bool warm = false;
  while (Clock::now() < deadline) {
    const auto begin = Clock::now();
    const HttpReply reply = http_once(port, "POST", "/reload");
    const double ms = ms_since(begin);
    const Outcome outcome = http_outcome(reply, expected);
    out.tally.record(outcome);
    if (!warm) {
      warm = true;
      continue;
    }
    out.latency.push_back(outcome == Outcome::kOk ? ms : kMissed);
  }
}

struct SocketPhase {
  std::vector<double> line_us;
  double line_qps = 0.0;
  std::vector<double> other;  // HTTP µs or reload ms
  Tally line_tally;
  Tally other_tally;
};

// Two line clients plus one `other` client (HTTP or reload), closed loop,
// until `seconds` have passed.
SocketPhase socket_phase(
    double seconds, std::uint16_t port, const Mix& mix, const Answers& answers,
    const std::function<void(Clock::time_point, ClientResult&)>& other) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<ClientResult> results(kLineClients + 1);
  std::vector<std::thread> threads;
  const auto guarded = [](ClientResult& out, const std::function<void()>& fn) {
    try {
      fn();
    } catch (...) {
      out.error = std::current_exception();
    }
  };
  for (std::size_t c = 0; c < kLineClients; ++c) {
    threads.emplace_back([&, c] {
      guarded(results[c], [&] {
        line_client(port, mix, answers, c * mix.requests.size() / 3, deadline,
                    results[c]);
      });
    });
  }
  threads.emplace_back([&] {
    guarded(results.back(), [&] { other(deadline, results.back()); });
  });
  for (std::thread& thread : threads) thread.join();
  SocketPhase phase;
  for (std::size_t c = 0; c < results.size(); ++c) {
    if (results[c].error) std::rethrow_exception(results[c].error);
    if (c < kLineClients) {
      phase.line_us.insert(phase.line_us.end(), results[c].latency.begin(),
                           results[c].latency.end());
      phase.line_tally.merge(results[c].tally);
      if (results[c].window_s > 0) {
        phase.line_qps +=
            static_cast<double>(results[c].counted) / results[c].window_s;
      }
    } else {
      phase.other = results[c].latency;
      phase.other_tally = results[c].tally;
    }
  }
  return phase;
}

// The live server over the snapshot file, as `gpumine serve` runs it.
struct LiveServer {
  std::shared_ptr<const serve::QueryEngine> engine;
  std::unique_ptr<serve::RequestHandler> handler;
  std::unique_ptr<serve::Server> server;

  explicit LiveServer(const std::string& snapshot_path) {
    engine = std::make_shared<const serve::QueryEngine>(
        unwrap(core::load_rule_snapshot_file(snapshot_path), "load snapshot"));
    handler = std::make_unique<serve::RequestHandler>(engine, snapshot_path);
    serve::ServerConfig config;
    config.num_threads = kThreads;
    server = std::make_unique<serve::Server>(*handler, config);
    unwrap(server->start(), "start server");
  }

  [[nodiscard]] std::uint16_t port() const { return server->port(); }
};

// The answer the analyze path rendered must be what the server sends for
// the same keyword, over both protocols.
void check_keyword_replies(const LiveServer& live, const std::string& json,
                           Ledger& ledger) {
  LineClient client(live.port());
  std::string reply;
  ledger.fail_unless("check", client.request(std::string("QUERY ") + kKeyword,
                                             reply) &&
                                  reply == json + "\n");
  const HttpReply http =
      http_once(live.port(), "GET",
                "/query?keyword=" + percent_encode(kKeyword));
  ledger.fail_unless("check", http.ok && http.status == 200 &&
                                  http.body == json);
}

// ---------------------------------------------------------------------
// Shared pieces of both runs.

struct Context {
  Options options;
  Input input;
  Pipeline pipeline;
  std::string snapshot_path;
  Ledger ledger;
  bool shapes_repeat = true;
};

template <typename Pass>
void check_shapes(Context& ctx, const std::vector<Pass>& passes,
                  const std::string& phase, const Shape& reference) {
  for (const Pass& pass : passes) {
    const bool same = pass.shape == reference;
    ctx.ledger.fail_unless(phase, same);
    ctx.shapes_repeat = ctx.shapes_repeat && same;
  }
}

// The settings `gpumine mine --threads 4` applies, over the workload's
// paper configuration.
Pipeline make_pipeline(const Workload& workload) {
  Pipeline pipeline;
  pipeline.csv.num_threads = kThreads;
  pipeline.csv.force_categorical = {"job_id"};
  pipeline.config = workload.config();
  pipeline.config.prep_threads = kThreads;
  pipeline.config.mining.num_threads = kThreads;
  pipeline.config.rules.num_threads = kThreads;
  return pipeline;
}

void print_settings(const Context& ctx, const Mix& mix) {
  const Options& o = ctx.options;
  std::size_t queries = 0;
  for (const MixRequest& r : mix.requests) queries += r.query ? 1 : 0;
  std::printf(
      "perf_e2e workload=%s seed=%llu seconds=%g trace=%d\n"
      "settings: prep/mine/rules threads=%zu, server workers=%zu, line "
      "clients=%zu, http clients=1, reload clients=1, keyword \"%s\"\n"
      "mix: %zu requests, %.1f%% QUERY (Zipf(1) over %zu keywords), %.1f%% "
      "SUPPORT, %zu distinct; warm-up: first pass per batch phase, first "
      "%zu requests per line connection, first %zu HTTP requests\n",
      o.workload->name, static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, kThreads, kThreads, kLineClients, kKeyword,
      mix.requests.size(),
      100.0 * static_cast<double>(queries) /
          static_cast<double>(mix.requests.size()),
      mix.num_keywords,
      100.0 * static_cast<double>(mix.requests.size() - queries) /
          static_cast<double>(mix.requests.size()),
      mix.targets.size(), kConnectionWarmup, kHttpWarmup);
}

// Share of line latencies (µs) that waited out a stall.
double stalled_share(const std::vector<double>& line_us) {
  const auto stalled =
      std::count_if(line_us.begin(), line_us.end(),
                    [](double us) { return us >= kStalledMs * 1e3; });
  return line_us.empty() ? 0.0
                         : static_cast<double>(stalled) /
                               static_cast<double>(line_us.size());
}

// The percentiles of `values` that have enough samples beyond them.
void print_distribution(const char* what, const std::vector<double>& values) {
  std::printf("%-16s n=%zu", what, values.size());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    if (values.empty()) break;
    const double v = percentile(values, q);
    if (count_above(values, v) < kMinSamplesBeyondTail) break;
    std::printf("  p%g=%.1f", q * 100.0, v);
  }
  std::printf("\n");
}

template <typename Pass, typename Field>
std::vector<double> collect(const std::vector<Pass>& passes, Field field) {
  std::vector<double> values;
  for (const Pass& pass : passes) values.push_back(field(pass));
  return values;
}

// ---------------------------------------------------------------------
// Peak memory of the analyze path, as a one-shot `gpumine mine` process
// sees it. The benchmark process itself is no measure: which malloc arena
// each pool thread lands in varies, and with it how much freed memory
// stays resident (52 or 80 MB on philly-40k, from run to run).

const char* const kRssChild = "--rss-child";
constexpr std::size_t kRssRepeats = 3;

// Child mode: one analyze pass, then its peak RSS written to `out`.
int run_rss_child(const std::string& workload_name, const std::string& csv,
                  const std::string& out) {
  for (const Workload& workload : kWorkloads) {
    if (workload_name == workload.name) {
      (void)analyze_pass(csv, make_pipeline(workload));
      std::ofstream(out) << std::to_string(peak_rss_mb()) << "\n";
      return 0;
    }
  }
  return 2;
}

// Runs one analyze pass in a fresh copy of this program; its peak RSS in
// MB, or throws if the child failed.
double child_peak_rss_mb(const Workload& workload, const std::string& csv,
                         const std::string& out) {
  std::string self = "/proc/self/exe";
  std::vector<std::string> args = {self, kRssChild, workload.name, csv, out};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (::posix_spawn(&pid, self.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0) {
    throw std::runtime_error("cannot start the peak-RSS child");
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the peak-RSS child failed");
  }
  return std::stod(read_file(out));
}

// ---------------------------------------------------------------------
// --trace 0: end-to-end metrics.

void run_end_to_end(Context& ctx, Report& report) {
  const Plan& plan = ctx.options.workload->plan;
  const double seconds = ctx.options.seconds;
  const std::string& csv = ctx.input.csv_path;

  // Analyze and publish passes alternate, so machine drift during the
  // phase reaches both medians alike.
  std::vector<AnalyzePass> analyzes;
  std::vector<PublishPass> publishes;
  const auto publish_once = [&] {
    return fingerprint(publish_pass(csv, ctx.snapshot_path, ctx.pipeline),
                       ctx.snapshot_path);
  };
  (void)analyze_pass(csv, ctx.pipeline);
  (void)publish_once();
  const auto begin = Clock::now();
  while (analyzes.size() < kMinPasses ||
         ms_since(begin) < plan.batch * seconds * 1e3) {
    analyzes.push_back(analyze_pass(csv, ctx.pipeline));
    publishes.push_back(publish_once());
  }
  check_shapes(ctx, analyzes, "analyze", analyzes.front().shape);
  check_shapes(ctx, publishes, "publish", publishes.front().shape);

  const double batch_rss = peak_rss_mb();
  std::vector<double> child_rss;
  for (std::size_t i = 0; i < kRssRepeats; ++i) {
    child_rss.push_back(child_peak_rss_mb(*ctx.options.workload, csv,
                                          ctx.snapshot_path + ".rss"));
  }
  LiveServer live(ctx.snapshot_path);
  const core::RuleSnapshot snapshot =
      unwrap(core::load_rule_snapshot_file(ctx.snapshot_path), "load snapshot");
  const Mix mix = mix_for(snapshot, ctx.options.seed);
  const Answers answers = reference_answers(live.engine, mix);
  print_settings(ctx, mix);
  check_keyword_replies(live, analyzes.front().json, ctx.ledger);

  const std::uint16_t port = live.port();
  const SocketPhase serve = socket_phase(
      plan.serve * seconds, port, mix, answers,
      [&](Clock::time_point deadline, ClientResult& out) {
        http_client(port, mix, answers, 2 * mix.requests.size() / 3, deadline,
                    out);
      });
  const double serve_rss = peak_rss_mb();
  const SocketPhase reload = socket_phase(
      plan.reload * seconds, port, mix, answers,
      [&](Clock::time_point deadline, ClientResult& out) {
        reload_client(port, snapshot.rules.size(), deadline, out);
      });
  ctx.ledger.phase("serve.line").merge(serve.line_tally);
  ctx.ledger.phase("serve.http").merge(serve.other_tally);
  ctx.ledger.phase("reload.line").merge(reload.line_tally);
  ctx.ledger.phase("reload").merge(reload.other_tally);

  std::printf(
      "phases: analyze %zu passes, publish %zu passes; serve %zu line + %zu "
      "HTTP samples; reload %zu line samples + %zu reloads\n",
      analyzes.size(), publishes.size(), serve.line_us.size(),
      serve.other.size(), reload.line_us.size(), reload.other.size());
  const std::vector<double> analyze_ms =
      collect(analyzes, [](const auto& p) { return p.ms; });
  const std::vector<double> publish_ms =
      collect(publishes, [](const auto& p) { return p.ms; });
  print_distribution("serve line us", serve.line_us);
  print_distribution("serve http us", serve.other);
  print_distribution("reload line us", reload.line_us);
  print_distribution("reload ms", reload.other);
  std::printf("stalled share of line requests: serve %.3f, reload %.3f\n",
              stalled_share(serve.line_us), stalled_share(reload.line_us));
  std::printf(
      "peak RSS of this process after: batch %.1f MB, serve %.1f MB, reload "
      "%.1f MB\n",
      batch_rss, serve_rss, peak_rss_mb());
  const Timing analyze = summarize(analyze_ms);
  const Timing publish = summarize(publish_ms);
  const Timing reload_ms = summarize(reload.other);
  const Timing line = summarize_tail(serve.line_us, kTail, "line_p99_us");
  const Timing reload_line =
      summarize_tail(reload.line_us, kTail, "reload_line_p99_us");
  const Timing http = summarize_tail(serve.other, kTail, "http_p99_us");

  report.add("analyze_ms", analyze, false, "ms");
  report.add("publish_ms", publish, false, "ms");
  report.add("reload_ms", reload_ms, false, "ms");
  report.add("line_qps", serve.line_qps, "1/s", serve.line_us.size());
  report.add("line_p50_us", line, false, "us");
  report.add("line_p99_us", line, true, "us");
  report.add("reload_line_p99_us", reload_line, true, "us");
  // Too noisy across runs on a shared machine to carry a bound; the
  // traced run reports them as serve.http_p50_us and serve.http_p99_us.
  report.add("http_p50_us", http, false, "us", false);
  report.add("http_p99_us", http, true, "us", false);
  report.add("peak_rss_mb", summarize(child_rss), false, "MB");
  report.add("setup_s", ctx.input.setup_s, false, "s");
}

// ---------------------------------------------------------------------
// --trace 1: per-layer metrics from a traced run.

// Durations of every `name` span, in ms times `scale`.
std::vector<double> span_values(const SpanReport& spans,
                                const std::string& name, double scale = 1.0) {
  const auto it = spans.by_name.find(name);
  if (it == spans.by_name.end()) {
    throw std::runtime_error("no '" + name + "' spans were recorded");
  }
  std::vector<double> values = it->second.duration_ms;
  for (double& v : values) v *= scale;
  return values;
}

Timing span_timing(const SpanReport& spans, const std::string& name) {
  return summarize(span_values(spans, name));
}

// GET /stats: the server's own p99 for /query, in µs.
double reported_query_p99_us(std::uint16_t port) {
  const HttpReply reply = http_once(port, "GET", "/stats");
  const std::size_t query = reply.body.find("{\"name\":\"query\"");
  const std::size_t p99 = reply.body.find("\"p99_us\":", query);
  if (!reply.ok || query == std::string::npos || p99 == std::string::npos) {
    throw std::runtime_error("GET /stats carried no query p99");
  }
  return std::strtod(reply.body.c_str() + p99 + 9, nullptr);
}

// Traced passes per batch phase; enough for stable medians, few enough
// that the trace opens quickly in Perfetto.
constexpr std::size_t kMaxTracedPasses = 12;
constexpr double kMinTracedServeSeconds = 5.0;

void run_traced(Context& ctx, Report& report) {
  const double seconds = ctx.options.seconds;
  const std::string& csv = ctx.input.csv_path;
  const auto run_begin = Clock::now();
  Tracer& tracer = Tracer::instance();
  tracer.reset();

  // Analyze: traced and untraced passes alternate, so the overhead
  // estimate sees the same machine drift on both sides.
  std::vector<AnalyzePass> traced;
  std::vector<AnalyzePass> untraced;
  {
    (void)analyze_pass(csv, ctx.pipeline);
    const auto begin = Clock::now();
    while (traced.size() < kMaxTracedPasses &&
           (traced.size() < kMinPasses ||
            ms_since(begin) < 0.30 * seconds * 1e3)) {
      tracer.enable();
      {
        Span phase("phase.analyze");
        traced.push_back(analyze_pass(csv, ctx.pipeline));
      }
      tracer.disable();
      untraced.push_back(analyze_pass(csv, ctx.pipeline));
    }
  }
  std::vector<PublishPass> publishes;
  run_batch<PublishPass>(
      0.15 * seconds,
      [&](bool timed) {
        if (timed) tracer.enable();
        PublishPass pass;
        {
          Span phase("phase.publish");
          pass = publish_pass(csv, ctx.snapshot_path, ctx.pipeline);
        }
        return fingerprint(pass, ctx.snapshot_path);
      },
      publishes, kMaxTracedPasses);
  tracer.disable();
  check_shapes(ctx, traced, "analyze", traced.front().shape);
  check_shapes(ctx, untraced, "analyze", traced.front().shape);
  check_shapes(ctx, publishes, "publish", publishes.front().shape);

  // Mining at one thread, over the same deduplicated database.
  {
    const Front front = front_half(csv, ctx.pipeline);
    core::MiningParams one = ctx.pipeline.config.mining;
    one.num_threads = 1;
    std::vector<std::size_t> sizes;
    run_batch<std::size_t>(
        0.10 * seconds,
        [&](bool timed) {
          if (timed) tracer.enable();
          Span phase("phase.mine_1t");
          Span span("core.mine_1t");
          return core::mine_frequent(front.deduped, one,
                                     ctx.pipeline.config.algorithm)
              .itemsets.size();
        },
        sizes, kMaxTracedPasses);
    tracer.disable();
    for (const std::size_t size : sizes) {
      ctx.ledger.fail_unless("mine_1t", size == traced.front().shape.itemsets);
    }
  }

  // Reload path in process: snapshot load, then engine build.
  std::shared_ptr<const serve::QueryEngine> engine;
  {
    std::vector<int> done;
    run_batch<int>(
        0.10 * seconds,
        [&](bool timed) {
          if (timed) tracer.enable();
          Span phase("phase.reload");
          core::RuleSnapshot snapshot;
          {
            Span span("core.snapshot_load");
            snapshot =
                unwrap(core::load_rule_snapshot_file(ctx.snapshot_path),
                       "load snapshot");
          }
          std::shared_ptr<const serve::QueryEngine> built;
          {
            Span span("serve.engine_build");
            built = std::make_shared<const serve::QueryEngine>(
                std::move(snapshot));
          }
          // Publishing frees the previous engine, as a reload on the
          // server does.
          Span span("serve.engine_release");
          engine = std::move(built);
          return 0;
        },
        done, kMaxTracedPasses);
    tracer.disable();
  }

  // In-process handling of the mix: one verifying pass, one timed pass.
  const core::RuleSnapshot snapshot =
      unwrap(core::load_rule_snapshot_file(ctx.snapshot_path), "load snapshot");
  const Mix mix = mix_for(snapshot, ctx.options.seed);
  const Answers answers = reference_answers(engine, mix);
  print_settings(ctx, mix);
  double reply_bytes = 0.0;
  {
    serve::RequestHandler handler(engine, "");
    for (const MixRequest& request : mix.requests) {
      const serve::HttpResponse response =
          handler.handle("GET", request.target);
      ctx.ledger.fail_unless("handle", response.status == 200 &&
                                           response.body ==
                                               answers.body[request.answer]);
      reply_bytes += static_cast<double>(response.body.size());
    }
    tracer.enable();
    Span phase("phase.handle");
    for (const MixRequest& request : mix.requests) {
      Span span("serve.handle");
      const serve::HttpResponse response =
          handler.handle("GET", request.target);
      if (response.body.size() != answers.body[request.answer].size()) {
        ctx.ledger.record("handle", Outcome::kMismatch);
      }
    }
  }
  tracer.disable();

  // Socket serving for the rest of the run, untraced: the server's spans
  // for this path are already in the trace from the handle phase.
  double stalled = 0.0;
  std::size_t line_samples = 0;
  double reported_p99 = 0.0;
  Timing http;
  {
    LiveServer live(ctx.snapshot_path);
    check_keyword_replies(live, traced.front().json, ctx.ledger);
    const std::uint16_t port = live.port();
    const SocketPhase serve = socket_phase(
        std::max(kMinTracedServeSeconds, seconds - ms_since(run_begin) / 1e3),
        port, mix, answers, [&](Clock::time_point deadline, ClientResult& out) {
          http_client(port, mix, answers, 2 * mix.requests.size() / 3,
                      deadline, out);
        });
    ctx.ledger.phase("serve.line").merge(serve.line_tally);
    ctx.ledger.phase("serve.http").merge(serve.other_tally);
    line_samples = serve.line_us.size();
    if (line_samples == 0) throw std::runtime_error("no line samples");
    stalled = stalled_share(serve.line_us);
    reported_p99 = reported_query_p99_us(port);
    http = summarize_tail(serve.other, kTail, "serve.http_p99_us");
    std::printf("server-reported /query p99: %.3f us\n", reported_p99);
  }

  const std::filesystem::path trace_path =
      std::filesystem::path(ctx.options.work_dir) /
      ("trace-" + std::string(ctx.options.workload->name) + "-seed" +
       std::to_string(ctx.options.seed) + ".json");
  unwrap(tracer.export_chrome_trace_file(trace_path.string()), "export trace");
  const std::size_t events =
      unwrap(validate_chrome_trace_file(trace_path.string()), "validate trace");
  const SpanReport spans = analyze_spans(tracer.collect());
  tracer.reset();

  std::printf("trace: %zu spans in %s (open in https://ui.perfetto.dev)\n",
              events, trace_path.c_str());
  std::printf("%-22s %8s %12s %12s\n", "span", "count", "median_ms",
              "self_ms");
  for (const auto& [name, times] : spans.by_name) {
    if (name.find('.') == std::string::npos) continue;  // program spans
    std::printf("%-22s %8zu %12.4f %12.4f\n", name.c_str(),
                times.duration_ms.size(), median(times.duration_ms),
                median(times.self_ms));
  }
  double coverage = 100.0;
  for (const auto& [phase, pct] : spans.min_coverage_pct) {
    std::printf("coverage %-16s %8.2f%%\n", phase.c_str(), pct);
    coverage = std::min(coverage, pct);
  }

  const AnalyzePass& first = traced.front();
  const Timing csv_ms = span_timing(spans, "prep.csv");
  const Timing mine_ms = span_timing(spans, "core.mine");
  const Timing mine_1t_ms = span_timing(spans, "core.mine_1t");
  const Timing handle = summarize_tail(span_values(spans, "serve.handle", 1e3),
                                       kTail, "serve.handle_p99_us");
  const double traced_ms =
      median(collect(traced, [](const auto& p) { return p.ms; }));
  const double untraced_ms =
      median(collect(untraced, [](const auto& p) { return p.ms; }));
  const Timing cpu =
      summarize(collect(untraced, [](const auto& p) { return p.cpu_ms; }));
  const auto mining = [&](auto field) {
    return summarize(collect(traced, [&](const auto& p) {
      return static_cast<double>(field(p.mining));
    }));
  };
  const auto layer = [&](const char* metric, const char* span) {
    report.add(metric, span_timing(spans, span), false, "ms");
  };

  report.add("prep.csv_ms", csv_ms, false, "ms");
  report.add("prep.csv_mb_per_s",
             static_cast<double>(ctx.input.csv_bytes) / 1048576.0 /
                 (csv_ms.median / 1e3),
             "MB/s", csv_ms.samples);
  layer("prep.prepare_ms", "prep.prepare");
  report.add("prep.items", static_cast<double>(first.shape.items), "count");
  layer("core.dedup_ms", "core.dedup");
  report.add("core.dedup_ratio", first.dedup_ratio, "ratio");
  report.add("core.mine_ms", mine_ms, false, "ms");
  report.add("core.mine_1t_ms", mine_1t_ms, false, "ms");
  report.add("core.mine_speedup", mine_1t_ms.median / mine_ms.median, "ratio");
  report.add("core.itemsets", static_cast<double>(first.shape.itemsets),
             "count");
  // Busy time as a share of the workers' wall time: on philly-40k no
  // subtree reaches the spawn cutoff, and a busy time that reads exactly 0
  // on every run would look like a constant, not a measurement.
  report.add("core.mine_pool_share", mining([](const core::MiningMetrics& m) {
               double busy = 0.0;
               for (const double s : m.worker_busy_seconds) busy += s;
               const double capacity =
                   m.wall_seconds * static_cast<double>(m.num_workers);
               return capacity > 0.0 ? busy / capacity : 0.0;
             }),
             false, "ratio");
  report.add("core.mine_tasks", mining([](const core::MiningMetrics& m) {
               return m.tasks_spawned;
             }),
             false, "count");
  report.add("core.peak_arena_mb", mining([](const core::MiningMetrics& m) {
               return static_cast<double>(m.peak_arena_bytes) / 1048576.0;
             }),
             false, "MB");
  report.add("core.peak_tree_nodes", mining([](const core::MiningMetrics& m) {
               return m.peak_tree_nodes;
             }),
             false, "count");
  layer("core.rules_ms", "core.rules");
  report.add("core.rules_generated", static_cast<double>(first.shape.rules),
             "count");
  report.add("core.rules_kept", static_cast<double>(first.shape.kept),
             "count");
  report.add("core.prune_pair_tests",
             static_cast<double>(first.prune_pair_tests), "count");
  layer("analysis.render_ms", "analysis.render");
  layer("core.snapshot_build_ms", "core.snapshot_build");
  layer("core.snapshot_save_ms", "core.snapshot_save");
  report.add("core.snapshot_mb",
             static_cast<double>(publishes.front().file_bytes) / 1048576.0,
             "MB");
  layer("core.snapshot_load_ms", "core.snapshot_load");
  layer("serve.engine_build_ms", "serve.engine_build");
  report.add("serve.handle_p50_us", handle, false, "us");
  report.add("serve.handle_p99_us", handle, true, "us");
  report.add("serve.reply_kb_mean",
             reply_bytes / 1024.0 / static_cast<double>(mix.requests.size()),
             "KB", mix.requests.size());
  report.add("serve.line_stalled_share", stalled, "ratio", line_samples);
  // The server's histogram reports bucket bounds, identical from run to
  // run; the gap to what clients see is the measurement.
  report.add("serve.reported_p99_gap", http.tail / reported_p99, "ratio",
             http.samples);
  report.add("serve.http_p50_us", http, false, "us");
  report.add("serve.http_p99_us", http, true, "us");
  report.add("proc.analyze_cpu_ms", cpu, false, "ms");
  report.add("proc.analyze_parallelism", cpu.median / untraced_ms, "ratio",
             untraced.size());
  report.add("trace.overhead_pct",
             100.0 * (traced_ms - untraced_ms) / untraced_ms, "%",
             traced.size());
  report.add("trace.coverage_pct", coverage, "%");
  if (coverage < 90.0) {
    throw std::runtime_error("a phase span is less than 90% covered by its "
                             "layer spans");
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 5 && std::string(argv[1]) == kRssChild) {
      return run_rss_child(argv[2], argv[3], argv[4]);
    }
    Context ctx;
    ctx.options = parse_options(argc, argv);
    const std::filesystem::path dir =
        std::filesystem::path(ctx.options.work_dir) /
        ("run-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    struct Cleanup {
      std::filesystem::path dir;
      ~Cleanup() {
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
      }
    } cleanup{dir};

    ctx.input = set_up(*ctx.options.workload, ctx.options.seed, dir.string(),
                       ctx.ledger);
    ctx.pipeline = make_pipeline(*ctx.options.workload);
    ctx.snapshot_path = (dir / "rules.snapshot").string();
    // The publish phase writes the snapshot the server phases load; the
    // traced run has no end-to-end publish phase, so it writes one here.
    if (ctx.options.trace) {
      (void)publish_pass(ctx.input.csv_path, ctx.snapshot_path, ctx.pipeline);
    }

    Report report;
    if (ctx.options.trace) {
      run_traced(ctx, report);
    } else {
      run_end_to_end(ctx, report);
    }
    report.print_table();
    ctx.ledger.print();
    const Tally total = ctx.ledger.total();
    const bool correct = ctx.shapes_repeat && total.mismatched == 0;
    const std::string metrics = report.json();
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        correct ? "true" : "false",
        static_cast<unsigned long long>(total.attempted),
        static_cast<unsigned long long>(total.failed), metrics.c_str());
    return 0;
  } catch (const UnsupportedTail& e) {
    std::fprintf(stderr, "perf_e2e: unsupported tail: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_e2e: %s\n", e.what());
    return 2;
  }
}
