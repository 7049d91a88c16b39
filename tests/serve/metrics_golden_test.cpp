// Golden renderings of every machine-readable metrics output: the
// `--stats-json` document, the `/stats` body and both Prometheus
// expositions, for fixed inputs that set every field to a distinct
// non-default value. The full renderings are the docs gate's fixtures
// (tools/fixtures/), so the gate sees every key and family the program
// can emit. On a mismatch the test writes what the code rendered next
// to the test's temp dir; copy it over the committed file only when the
// change to the output is intended.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/metrics.hpp"
#include "core/frequent.hpp"
#include "serve/metrics.hpp"

namespace gpumine {
namespace {

core::MiningMetrics full_mining_metrics() {
  core::MiningMetrics m;
  m.num_workers = 3;
  m.tasks_spawned = 1234;
  m.tasks_stolen = 567;
  m.peak_queue_length = 89;
  m.wall_seconds = 1.23456789;
  // 0.1 + 0.2: JSON prints 6 significant digits, the exposition the
  // shortest string that round-trips.
  m.worker_busy_seconds = {0.25, 0.1 + 0.2, 0.987654321};
  m.arena_bytes_allocated = 5000000001;     // above 2^32
  m.arena_bytes_reused = 3000000000000000;  // above 1e15
  m.peak_arena_bytes = 777777;
  m.peak_tree_nodes = 4242;
  m.child_probe_count = 987654321;
  // Eleven depths, so the exposition's label sort puts "10" before "2".
  m.depth_histogram = {700, 600, 500, 400, 300, 200, 110, 90, 70, 50, 30};

  core::RuleStageMetrics& r = m.rule_stage;
  r.num_threads = 6;
  r.itemsets_considered = 4224;
  r.candidate_rules = 64100;
  r.rules_generated = 53348;
  r.rules_kept = 681;
  r.pruned_by_condition = {13709, 8050, 13615, 13614};
  r.prune_pair_comparisons = 609168;
  r.generation_seconds = 0.0259414;
  r.prune_seconds = 0.0153974;

  core::PrepStageMetrics& pr = m.prep_stage;
  pr.csv_seconds = 0.0245329;
  pr.binning_seconds = 0.0150007;
  pr.encode_seconds = 0.00367474;
  pr.dedup_seconds = 0.00123;
  pr.input_transactions = 20002;
  pr.distinct_transactions = 19906;
  pr.dedup_ratio = 20002.0 / 19906.0;
  return m;
}

serve::MetricsSnapshot full_server_metrics() {
  serve::MetricsSnapshot s;
  for (std::size_t i = 0; i < serve::kNumEndpoints; ++i) {
    serve::EndpointSnapshot e;
    e.name = serve::endpoint_name(static_cast<serve::Endpoint>(i));
    e.bucket_counts.assign(serve::LatencyHistogram::kBuckets, 0);
    e.bucket_counts[10 + i] = 20 + i;
    e.bucket_counts[12 + i] = 3;
    // The saturating top bucket becomes the exposition's +Inf bucket.
    e.bucket_counts[serve::LatencyHistogram::kBuckets - 1] = i % 2;
    e.requests = 23 + i + i % 2;
    e.errors = i;
    e.p50_us = 1.023 * static_cast<double>(i + 1);
    e.p95_us = 4.095 * static_cast<double>(i + 1);
    e.p99_us = 16.383 * static_cast<double>(i + 1);
    e.mean_us = 2.5 + static_cast<double>(i) / 3.0;
    e.min_us = 0.5 + static_cast<double>(i);
    e.max_us = 300.125 + static_cast<double>(i);
    e.sum_ns = 57500 + 1000 * i;
    s.total_requests += e.requests;
    s.endpoints.push_back(e);
  }
  s.reloads = 5;
  s.reload_failures = 2;
  s.uptime_seconds = 12.3456789;
  s.qps = static_cast<double>(s.total_requests) / s.uptime_seconds;
  return s;
}

serve::SnapshotShape full_shape() {
  serve::SnapshotShape shape;
  shape.db_size = 20003;
  shape.items = 2490;
  shape.itemsets = 4277;
  shape.rules = 53349;
  shape.keywords_with_rules = 52;
  return shape;
}

// `mine --stats-json` of an untraced run.
std::string stats_json(const core::MiningMetrics& metrics) {
  std::string json = render_json(metrics);
  json.pop_back();
  return json + ",\"trace_spans\":[]}";
}

// The GET /stats body.
std::string stats_body(const serve::MetricsSnapshot& metrics,
                       const serve::SnapshotShape& shape) {
  return render_json(serve::ServerStats{metrics, shape});
}

std::string mining_exposition(const core::MiningMetrics& metrics) {
  return render_exposition(metrics);
}

std::string server_exposition(const serve::MetricsSnapshot& metrics,
                              const serve::SnapshotShape& shape) {
  return render_exposition(serve::ServerStats{metrics, shape});
}

void expect_golden(const std::string& relative, const std::string& actual) {
  const std::string path = std::string(GPUMINE_SOURCE_DIR) + "/" + relative;
  std::ifstream in(path, std::ios::binary);
  std::ostringstream expected;
  expected << in.rdbuf();
  if (in && expected.str() == actual) return;
  const std::string rendered =
      ::testing::TempDir() + relative.substr(relative.rfind('/') + 1);
  std::ofstream(rendered, std::ios::binary) << actual;
  ADD_FAILURE() << relative << " differs from what the code renders now ("
                << rendered << ")";
}

void expect_lints(const std::string& exposition) {
  const auto linted = validate_prometheus_text(exposition);
  EXPECT_TRUE(linted.ok()) << linted.error().to_string();
}

TEST(MetricsGolden, FullRenderingsAreTheDocsFixtures) {
  const core::MiningMetrics mining = full_mining_metrics();
  const serve::MetricsSnapshot server = full_server_metrics();
  const serve::SnapshotShape shape = full_shape();
  expect_golden("tools/fixtures/stats_fixture.json",
                "{\"mine\":" + stats_json(mining) +
                    ",\"server\":" + stats_body(server, shape) + "}\n");
  expect_golden("tools/fixtures/metrics_fixture.txt",
                mining_exposition(mining) + server_exposition(server, shape));
}

TEST(MetricsGolden, DefaultMiningRenderings) {
  const core::MiningMetrics mining;
  expect_golden("tests/serve/golden/default_stats.json",
                stats_json(mining) + "\n");
  expect_golden("tests/serve/golden/default_metrics.txt",
                mining_exposition(mining));
}

TEST(MetricsGolden, ExpositionsLint) {
  expect_lints(mining_exposition(full_mining_metrics()));
  expect_lints(mining_exposition(core::MiningMetrics{}));
  expect_lints(server_exposition(full_server_metrics(), full_shape()));
}

}  // namespace
}  // namespace gpumine
