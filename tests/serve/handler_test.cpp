#include "serve/handler.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/snapshot.hpp"
#include "serve_test_util.hpp"

namespace gpumine::serve {
namespace {

std::shared_ptr<const QueryEngine> engine_fixture(std::uint64_t seed = 4) {
  return std::make_shared<const QueryEngine>(testutil::snapshot_fixture(seed));
}

TEST(UrlDecode, DecodesEscapesAndPlus) {
  EXPECT_EQ(url_decode("SM%20Util%20%3D%200%25"), "SM Util = 0%");
  EXPECT_EQ(url_decode("a+b"), "a b");
  EXPECT_EQ(url_decode("plain"), "plain");
  EXPECT_EQ(url_decode(""), "");
  // Malformed escapes pass through verbatim instead of throwing.
  EXPECT_EQ(url_decode("100%"), "100%");
  EXPECT_EQ(url_decode("%2"), "%2");
  EXPECT_EQ(url_decode("%zz"), "%zz");
}

TEST(RequestHandler, QueryReturnsTheCachedBytes) {
  auto engine = engine_fixture();
  RequestHandler handler(engine, "");
  const HttpResponse response =
      handler.handle("GET", "/query?keyword=Failed");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_EQ(response.body, *engine->query_json("Failed"));
}

TEST(RequestHandler, QueryDecodesPercentEncodedKeywords) {
  auto engine = engine_fixture();
  RequestHandler handler(engine, "");
  const HttpResponse response =
      handler.handle("GET", "/query?keyword=SM%20Util%20%3D%200%25");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, *engine->query_json("SM Util = 0%"));
}

TEST(RequestHandler, QueryErrors) {
  RequestHandler handler(engine_fixture(), "");
  EXPECT_EQ(handler.handle("GET", "/query").status, 400);
  EXPECT_EQ(handler.handle("GET", "/query?keyword=").status, 400);
  EXPECT_EQ(handler.handle("GET", "/query?keyword=NoSuchItem").status, 404);
  EXPECT_EQ(handler.handle("GET", "/nope").status, 404);
  // A keyword that is not UTF-8 is echoed with U+FFFD in place of the
  // bad byte, so the error body stays valid JSON.
  const HttpResponse bad = handler.handle("GET", "/query?keyword=ab%FFcd");
  EXPECT_EQ(bad.status, 404);
  EXPECT_EQ(bad.body, "{\"error\":\"keyword 'ab\\ufffdcd' is not an item\"}");
}

TEST(RequestHandler, SupportEndpoint) {
  auto engine = engine_fixture();
  RequestHandler handler(engine, "");
  const auto count = engine->support_count({"Failed"});
  ASSERT_TRUE(count.has_value());
  const HttpResponse hit = handler.handle("GET", "/support?items=Failed");
  EXPECT_EQ(hit.status, 200);
  EXPECT_NE(hit.body.find("\"frequent\":true"), std::string::npos);
  EXPECT_NE(hit.body.find("\"count\":" + std::to_string(*count)),
            std::string::npos);

  const HttpResponse miss =
      handler.handle("GET", "/support?items=NoSuchItem");
  EXPECT_EQ(miss.status, 200);
  EXPECT_NE(miss.body.find("\"frequent\":false"), std::string::npos);

  EXPECT_EQ(handler.handle("GET", "/support").status, 400);
  // Separators with no names: the empty itemset is not a query.
  for (const char* target : {"/support?items=,,,", "/support?items=%2C"}) {
    const HttpResponse empty = handler.handle("GET", target);
    EXPECT_EQ(empty.status, 400) << target;
    EXPECT_EQ(empty.body, "{\"error\":\"no items in ?items=\"}") << target;
  }
}

TEST(RequestHandler, HealthAndStats) {
  RequestHandler handler(engine_fixture(), "");
  const HttpResponse health = handler.handle("GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  (void)handler.handle("GET", "/query?keyword=Failed");
  (void)handler.handle("GET", "/query?keyword=NoSuchItem");
  const HttpResponse stats = handler.handle("GET", "/stats");
  EXPECT_EQ(stats.status, 200);
  // Two /query requests (one a 404) must show up in the metrics.
  EXPECT_NE(stats.body.find("\"name\":\"query\",\"requests\":2,\"errors\":1"),
            std::string::npos)
      << stats.body;
  EXPECT_NE(stats.body.find("\"snapshot\":{\"db_size\":"), std::string::npos);
}

TEST(RequestHandler, LineProtocolMapsOntoHttpEndpoints) {
  auto engine = engine_fixture();
  RequestHandler handler(engine, "");
  EXPECT_EQ(handler.handle_line("HEALTH").body, "ok\n");
  // Names after the verb are taken verbatim — spaces, '=' and '%' too —
  // and must hit the same cached bytes as the HTTP endpoint.
  EXPECT_EQ(handler.handle_line("QUERY SM Util = 0%\r\n").body,
            *engine->query_json("SM Util = 0%"));
  EXPECT_NE(handler.handle_line("SUPPORT Failed").body.find(
                "\"frequent\":true"),
            std::string::npos);
  EXPECT_EQ(handler.handle_line("SUPPORT ,,,").status, 400);
  EXPECT_EQ(handler.handle_line("STATS").status, 200);
  EXPECT_EQ(handler.handle_line("BOGUS x").status, 400);
}

TEST(RequestHandler, ReloadWithoutPathFailsClosed) {
  auto engine = engine_fixture();
  RequestHandler handler(engine, "");
  const HttpResponse response = handler.handle("POST", "/reload");
  EXPECT_EQ(response.status, 500);
  // The engine must be unchanged after a failed reload.
  EXPECT_EQ(handler.engine().get(), engine.get());
  const HttpResponse stats = handler.handle("GET", "/stats");
  EXPECT_NE(stats.body.find("\"reloads\":1,\"reload_failures\":1"),
            std::string::npos)
      << stats.body;
}

TEST(RequestHandler, ReloadOfOversizedHeaderFailsClosed) {
  // A 28-byte header claiming a 1 TiB payload: the reload must fail with
  // a 500, be counted, and leave the serving engine in place.
  const std::string path = ::testing::TempDir() + "/gpumine_oversized.snap";
  // Magic, version 2, payload size 2^40 (byte 5 of the little-endian
  // u64 at offset 12), checksum 0.
  std::string header(28, '\0');
  header.replace(0, 8, "GPMSNAP2");
  header[8] = 2;
  header[12 + 5] = 1;
  std::ofstream(path, std::ios::binary) << header;
  auto engine = engine_fixture();
  RequestHandler handler(engine, path);
  const HttpResponse response = handler.handle("POST", "/reload");
  EXPECT_EQ(response.status, 500);
  EXPECT_NE(response.body.find("payload"), std::string::npos) << response.body;
  EXPECT_EQ(handler.engine().get(), engine.get());
  const HttpResponse stats = handler.handle("GET", "/stats");
  EXPECT_NE(stats.body.find("\"reloads\":1,\"reload_failures\":1"),
            std::string::npos)
      << stats.body;
  const HttpResponse query = handler.handle("GET", "/query?keyword=Failed");
  EXPECT_EQ(query.status, 200);
  EXPECT_EQ(query.body, *engine->query_json("Failed"));
}

TEST(RequestHandler, ReloadSwapsInTheNewSnapshot) {
  const std::string path = ::testing::TempDir() + "/gpumine_reload.snap";
  const auto saved =
      core::save_rule_snapshot_file(testutil::snapshot_fixture(4), path);
  ASSERT_TRUE(saved.ok());

  RequestHandler handler(engine_fixture(4), path);
  const auto query_every_keyword = [&handler] {
    std::vector<std::string> bodies;
    for (const std::string& keyword : handler.engine()->keyword_names()) {
      const HttpResponse response =
          handler.handle("GET", testutil::query_target(keyword));
      EXPECT_EQ(response.status, 200) << keyword;
      bodies.push_back(response.body);
    }
    return bodies;
  };

  // Reloading the unchanged file swaps in a new engine that answers
  // every keyword with the same bytes.
  const std::vector<std::string> before = query_every_keyword();
  ASSERT_EQ(before.size(), 4u);
  const auto first_engine = handler.engine();
  ASSERT_EQ(handler.handle("POST", "/reload").status, 200);
  EXPECT_NE(handler.engine().get(), first_engine.get());
  EXPECT_EQ(query_every_keyword(), before);
  const auto old_engine = handler.engine();

  // Overwrite the file with a differently-seeded snapshot and reload.
  const core::RuleSnapshot next = testutil::snapshot_fixture(99, 200);
  ASSERT_TRUE(core::save_rule_snapshot_file(next, path).ok());
  const HttpResponse response = handler.handle("POST", "/reload");
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_NE(handler.engine().get(), old_engine.get());
  EXPECT_EQ(handler.engine()->num_rules(), next.rules.size());
  // Readers holding the old engine still see valid data.
  EXPECT_NE(old_engine->query("Failed"), nullptr);
}

TEST(RequestHandler, ReloadRejectsWrongMethod) {
  RequestHandler handler(engine_fixture(), "");
  EXPECT_EQ(handler.handle("PUT", "/reload").status, 405);
}

TEST(RequestHandler, MetricsEndpointServesLintedExposition) {
  auto engine = engine_fixture();
  RequestHandler handler(engine, "");
  (void)handler.handle("GET", "/query?keyword=Failed");
  (void)handler.handle("GET", "/query?keyword=NoSuchItem");
  const HttpResponse response = handler.handle("GET", "/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, kPrometheusContentType);
  const auto linted = validate_prometheus_text(response.body);
  ASSERT_TRUE(linted.ok()) << linted.error().to_string();
  EXPECT_NE(response.body.find(
                "gpumine_server_requests_total{endpoint=\"query\"} 2"),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find(
                "gpumine_server_errors_total{endpoint=\"query\"} 1"),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("gpumine_snapshot_rules "),
            std::string::npos);
  EXPECT_NE(
      response.body.find("gpumine_server_request_latency_seconds_bucket"),
      std::string::npos);
}

TEST(RequestHandler, MetricsSeriesSetIsStableAcrossScrapes) {
  RequestHandler handler(engine_fixture(), "");
  const auto series_names = [](const std::string& body) {
    std::vector<std::string> names;
    std::size_t begin = 0;
    while (begin < body.size()) {
      std::size_t end = body.find('\n', begin);
      if (end == std::string::npos) end = body.size();
      const std::string line = body.substr(begin, end - begin);
      if (!line.empty() && line[0] != '#') {
        names.push_back(line.substr(0, line.find(' ')));
      }
      begin = end + 1;
    }
    return names;
  };
  const auto first = series_names(handler.handle("GET", "/metrics").body);
  (void)handler.handle("GET", "/query?keyword=Failed");
  const auto second = series_names(handler.handle("GET", "/metrics").body);
  // Traffic changes sample values, never the series set: every series
  // is pre-registered per endpoint, not created on first hit.
  EXPECT_EQ(first, second);
}

TEST(RequestHandler, SlowQueryThresholdIsConfigurable) {
  Logger::instance().set_level(LogLevel::kOff);  // keep stderr clean
  RequestHandler handler(engine_fixture(), "");
  EXPECT_EQ(handler.slow_query_ns(), 0u);
  handler.set_slow_query_ns(1);  // 1ns: everything is slow
  EXPECT_EQ(handler.slow_query_ns(), 1u);
  // With the flight sink off the log line still forms (empty spans);
  // the request itself must be unaffected.
  const HttpResponse response = handler.handle("GET", "/query?keyword=Failed");
  EXPECT_EQ(response.status, 200);
  Logger::instance().reset_for_tests();
}

// The slow-query line carries the request's own spans from the serving
// thread's ring, nested as they ran.
TEST(RequestHandler, SlowQueryLogCarriesTheRequestSpans) {
  const std::string path = ::testing::TempDir() + "/slow_query_spans.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(Logger::instance().open_file(path).ok());
  Logger::instance().set_level(LogLevel::kWarn);
  RequestHandler handler(engine_fixture(), "");
  handler.set_slow_query_ns(1);  // 1ns: everything is slow
  Tracer::instance().reset();
  Tracer::instance().set_ring_recording(true);
  const HttpResponse response = handler.handle("GET", "/query?keyword=Failed");
  Tracer::instance().set_ring_recording(false);
  Logger::instance().reset_for_tests();  // flush + close the file sink
  EXPECT_EQ(response.status, 200);

  std::ifstream file(path);
  std::string line;
  ASSERT_TRUE(std::getline(file, line));
  EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"msg\":\"slow query\""), std::string::npos) << line;
  const std::size_t spans = line.find("\"spans\":[");
  ASSERT_NE(spans, std::string::npos) << line;
  // Depth of the first span named `name` in the spans array, or -1.
  const auto depth_of = [&](const std::string& name) {
    const std::size_t at = line.find("{\"name\":\"" + name + "\"", spans);
    if (at == std::string::npos) return -1;
    const std::size_t depth = line.find("\"depth\":", at);
    return depth == std::string::npos ? -1 : std::stoi(line.substr(depth + 8));
  };
  const int request = depth_of("serve/request");
  ASSERT_GE(request, 0) << line;
  EXPECT_EQ(depth_of("serve/engine_lookup"), request + 1) << line;
}

}  // namespace
}  // namespace gpumine::serve
