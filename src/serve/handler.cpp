#include "serve/handler.hpp"

#include <chrono>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/trace.hpp"
#include "core/snapshot.hpp"

namespace gpumine::serve {
namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

HttpResponse error_response(int status, const std::string& message) {
  std::string body = "{\"error\":\"";
  append_json_escaped(body, message);
  body += "\"}";
  return {status, "application/json", std::move(body)};
}

/// Value of `name` in a query string ("a=1&b=2"), percent-decoded;
/// nullopt when absent.
std::optional<std::string> query_param(std::string_view query,
                                       std::string_view name) {
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? query : query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view{}
                                          : query.substr(amp + 1);
    const std::size_t eq = pair.find('=');
    const std::string_view key =
        eq == std::string_view::npos ? pair : pair.substr(0, eq);
    if (key == name) {
      return url_decode(eq == std::string_view::npos ? std::string_view{}
                                                     : pair.substr(eq + 1));
    }
  }
  return std::nullopt;
}

std::vector<std::string> split_names(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = csv.find(',', begin);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > begin) out.push_back(csv.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

Endpoint classify(std::string_view path) {
  if (path == "/query") return Endpoint::kQuery;
  if (path == "/support") return Endpoint::kSupport;
  if (path == "/stats") return Endpoint::kStats;
  if (path == "/reload") return Endpoint::kReload;
  if (path == "/healthz") return Endpoint::kHealth;
  if (path == "/metrics") return Endpoint::kMetrics;
  return Endpoint::kOther;
}

}  // namespace

std::string url_decode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%' && i + 2 < text.size()) {
      const int hi = hex_digit(text[i + 1]);
      const int lo = hex_digit(text[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
      } else {
        out += c;
      }
    } else {
      out += c;
    }
  }
  return out;
}

RequestHandler::RequestHandler(std::shared_ptr<const QueryEngine> engine,
                               std::string snapshot_path)
    : handle_(std::move(engine)), snapshot_path_(std::move(snapshot_path)) {}

HttpResponse RequestHandler::handle(std::string_view method,
                                    std::string_view target) {
  const std::size_t question = target.find('?');
  const std::string_view path = question == std::string_view::npos
                                    ? target
                                    : target.substr(0, question);
  const auto begin = std::chrono::steady_clock::now();
  // Tracer-clock stamp of the request start, for pulling this request's
  // span subtree out of the thread's ring if it turns out slow.
  const std::uint64_t trace_start_ns =
      slow_query_ns_ != 0 ? Tracer::instance().now_ns() : 0;
  HttpResponse response;
  {
    GPUMINE_SPAN("serve/request");
    response = route(method, target);
  }
  const auto nanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begin)
          .count());
  metrics_.record(classify(path), response.status, nanos);
  if (slow_query_ns_ != 0 && nanos >= slow_query_ns_) {
    log_slow_query(method, target, response.status, nanos, trace_start_ns);
  }
  return response;
}

void RequestHandler::log_slow_query(std::string_view method,
                                    std::string_view target, int status,
                                    std::uint64_t nanos,
                                    std::uint64_t trace_start_ns) {
  // The request's own spans: everything this thread completed since the
  // request began. Empty when ring recording is off.
  std::string spans = "[";
  for (const TraceEvent& span :
       Tracer::instance().thread_spans_since(trace_start_ns)) {
    if (spans.size() > 1) spans += ',';
    spans += "{\"name\":\"";
    append_json_escaped(spans, span.name);
    spans += "\",\"start_us\":";
    append_real(spans,
                static_cast<double>(span.start_ns - trace_start_ns) / 1e3);
    spans += ",\"dur_us\":";
    append_real(spans, static_cast<double>(span.duration_ns) / 1e3);
    spans += ",\"depth\":" + std::to_string(span.depth) + "}";
  }
  spans += ']';
  log_warn("serve", "slow query",
           {{"method", method},
            {"target", target},
            {"status", status},
            {"latency_ms", static_cast<double>(nanos) / 1e6},
            {"threshold_ms", static_cast<double>(slow_query_ns_) / 1e6},
            LogField::raw("spans", spans)});
}

HttpResponse RequestHandler::route(std::string_view method,
                                   std::string_view target) {
  const std::size_t question = target.find('?');
  const std::string_view path = question == std::string_view::npos
                                    ? target
                                    : target.substr(0, question);
  const std::string_view query = question == std::string_view::npos
                                     ? std::string_view{}
                                     : target.substr(question + 1);

  if (path == "/healthz") {
    return {200, "text/plain", "ok\n"};
  }
  if (path == "/query") {
    std::optional<std::string> keyword;
    {
      GPUMINE_SPAN("serve/parse");
      keyword = query_param(query, "keyword");
    }
    if (!keyword || keyword->empty()) {
      return error_response(400, "missing ?keyword=");
    }
    std::shared_ptr<const QueryEngine> engine;
    const std::string* json = nullptr;
    {
      GPUMINE_SPAN("serve/engine_lookup");
      engine = handle_.get();
      json = engine->query_json(*keyword);
    }
    if (json == nullptr) {
      return error_response(404,
                            "keyword '" + *keyword + "' is not an item");
    }
    // One string copy; the engine's cached bytes are the response.
    GPUMINE_SPAN("serve/render");
    return {200, "application/json", *json};
  }
  if (path == "/support") {
    const auto items = query_param(query, "items");
    if (!items || items->empty()) {
      return error_response(400, "missing ?items=A,B");
    }
    const std::vector<std::string> names = split_names(*items);
    // ",,," names no item; the empty set's support is the whole
    // database, which is not what a probe asks for.
    if (names.empty()) return error_response(400, "no items in ?items=");
    const std::shared_ptr<const QueryEngine> engine = handle_.get();
    const auto count = engine->support_count(names);
    std::string body = "{\"items\":[";
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i > 0) body += ',';
      body += '"';
      append_json_escaped(body, names[i]);
      body += '"';
    }
    body += "],\"frequent\":";
    if (count.has_value()) {
      const double support =
          engine->db_size() == 0
              ? 0.0
              : static_cast<double>(*count) /
                    static_cast<double>(engine->db_size());
      body += "true,\"count\":" + std::to_string(*count) + ",\"support\":";
      append_real(body, support);
    } else {
      body += "false,\"count\":0,\"support\":0";
    }
    body += '}';
    return {200, "application/json", std::move(body)};
  }
  if (path == "/stats" || path == "/metrics") {
    const std::shared_ptr<const QueryEngine> engine = handle_.get();
    const ServerStats stats{
        metrics_.snapshot(),
        {engine->db_size(), engine->catalog().size(), engine->num_itemsets(),
         engine->num_rules(), engine->num_keywords_with_rules()}};
    if (path == "/stats") return {200, "application/json", render_json(stats)};
    return {200, kPrometheusContentType, render_exposition(stats)};
  }
  if (path == "/reload") {
    if (method != "POST" && method != "GET") {
      return error_response(405, "use POST /reload");
    }
    const auto reloaded = reload();
    metrics_.record_reload(reloaded.ok());
    if (!reloaded.ok()) {
      log_error("serve", "reload failed",
                {{"error", reloaded.error().to_string()}});
      return error_response(500, reloaded.error().to_string());
    }
    const std::shared_ptr<const QueryEngine> engine = handle_.get();
    log_info("serve", "snapshot reloaded",
             {{"rules", static_cast<std::uint64_t>(engine->num_rules())}});
    return {200, "application/json",
            "{\"reloaded\":true,\"rules\":" +
                std::to_string(engine->num_rules()) + "}"};
  }
  return error_response(404, "no such endpoint");
}

HttpResponse RequestHandler::handle_line(std::string_view line) {
  // Strip trailing CR (telnet/netcat clients).
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
    line.remove_suffix(1);
  }
  const std::size_t space = line.find(' ');
  const std::string_view verb =
      space == std::string_view::npos ? line : line.substr(0, space);
  const std::string_view rest =
      space == std::string_view::npos ? std::string_view{}
                                      : line.substr(space + 1);
  const auto encode = [](std::string_view text) {
    // Minimal escaping for the internal round trip: the handler decodes
    // %XX, so encode the two separators that would split the target.
    std::string out;
    for (const char c : text) {
      if (c == '%') {
        out += "%25";
      } else if (c == '&') {
        out += "%26";
      } else if (c == '+') {
        out += "%2B";
      } else {
        out += c;
      }
    }
    return out;
  };
  if (verb == "QUERY") return handle("GET", "/query?keyword=" + encode(rest));
  if (verb == "SUPPORT") {
    return handle("GET", "/support?items=" + encode(rest));
  }
  if (verb == "STATS") return handle("GET", "/stats");
  if (verb == "RELOAD") return handle("POST", "/reload");
  if (verb == "HEALTH") return handle("GET", "/healthz");
  return error_response(400, "unknown command (QUERY/SUPPORT/STATS/RELOAD)");
}

Result<bool> RequestHandler::reload() {
  if (snapshot_path_.empty()) {
    return Error{"reload", "no snapshot path configured"};
  }
  auto snapshot = core::load_rule_snapshot_file(snapshot_path_);
  if (!snapshot.ok()) return snapshot.error();
  handle_.publish(
      std::make_shared<const QueryEngine>(std::move(snapshot).value()));
  return true;
}

}  // namespace gpumine::serve
