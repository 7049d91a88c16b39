// RequestHandler: protocol-independent request routing for the rule
// server.
//
// The socket layer (serve/server.hpp) and the tests drive this one
// entry point, so the serving logic is testable without a network;
// perf_e2e calls it in-process for its reference replies and its
// serve.handle_* timings.
//
// Endpoints (HTTP targets; the line protocol maps onto the same ones):
//   GET  /query?keyword=NAME    pre-rendered rule JSON for the keyword
//   GET  /support?items=A,B     support probe over the itemset family
//   GET  /stats                 server metrics + snapshot shape
//   GET  /metrics               Prometheus text exposition format 0.0.4
//   POST /reload                re-read the snapshot file, atomic swap
//   GET  /healthz               liveness probe
//
// Keyword and item names arrive percent-encoded ("SM%20Util%20%3D%200%25");
// '+' is accepted for space. Every request is timed into ServerMetrics
// under its endpoint. Responses for /query are the engine's cached
// bytes — byte-identical across threads, reloads of identical
// snapshots, and the one-shot CLI pipeline.
//
// Slow-query log: with set_slow_query_ns(t) and the Tracer's rings on,
// any request slower than t gets a structured warn line carrying the
// request's own span subtree pulled from the serving thread's ring —
// post-hoc context for exactly the requests that need explaining.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/result.hpp"
#include "serve/engine_handle.hpp"
#include "serve/metrics.hpp"
#include "serve/query_engine.hpp"

namespace gpumine::serve {

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// Decodes %XX escapes and '+' as space; malformed escapes are kept
/// verbatim (a keyword lookup will simply miss).
[[nodiscard]] std::string url_decode(std::string_view text);

class RequestHandler {
 public:
  /// `snapshot_path` is re-read on every /reload; it may be empty for
  /// handlers built from an in-memory snapshot (reload then fails with
  /// a 500 and no engine change).
  RequestHandler(std::shared_ptr<const QueryEngine> engine,
                 std::string snapshot_path);

  /// Routes one request. `target` is the HTTP request target
  /// ("/query?keyword=Failed"); `method` is "GET"/"POST"/...
  [[nodiscard]] HttpResponse handle(std::string_view method,
                                    std::string_view target);

  /// Maps one line-protocol command ("QUERY Failed", "SUPPORT a,b",
  /// "STATS", "RELOAD", "HEALTH") onto the HTTP endpoint; names after
  /// the verb are taken verbatim (no percent-encoding on this path).
  [[nodiscard]] HttpResponse handle_line(std::string_view line);

  /// Re-reads the snapshot file, builds a fresh engine, and publishes
  /// it. Readers in flight keep the old engine until they drop it.
  [[nodiscard]] Result<bool> reload();

  /// Current engine (shared across reloads).
  [[nodiscard]] std::shared_ptr<const QueryEngine> engine() const {
    return handle_.get();
  }

  [[nodiscard]] ServerMetrics& metrics() { return metrics_; }
  [[nodiscard]] const std::string& snapshot_path() const {
    return snapshot_path_;
  }

  /// Requests slower than `nanos` get a structured slow-query log line
  /// (0 disables, the default). Set before serving starts.
  void set_slow_query_ns(std::uint64_t nanos) { slow_query_ns_ = nanos; }
  [[nodiscard]] std::uint64_t slow_query_ns() const { return slow_query_ns_; }

 private:
  HttpResponse route(std::string_view method, std::string_view target);
  void log_slow_query(std::string_view method, std::string_view target,
                      int status, std::uint64_t nanos,
                      std::uint64_t trace_start_ns);

  EngineHandle<QueryEngine> handle_;
  std::string snapshot_path_;
  ServerMetrics metrics_;
  std::uint64_t slow_query_ns_ = 0;
};

}  // namespace gpumine::serve
