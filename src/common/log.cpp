#include "common/log.hpp"

#include <time.h>

#include <array>
#include <cmath>
#include <cstdlib>

#include "common/ensure.hpp"
#include "common/json.hpp"
#include "common/trace.hpp"

namespace gpumine {
namespace {

constexpr std::uint64_t kRepeatWindowNs = 1'000'000'000ull;  // 1s
// Suppression map safety valve: pathological unbounded message variety
// must not grow memory forever.
constexpr std::size_t kMaxRepeatKeys = 512;

void append_quoted(std::string& out, std::string_view s) {
  out.push_back('"');
  append_json_escaped(out, s);
  out.push_back('"');
}

}  // namespace

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  GPUMINE_ENSURE(false, "unknown LogLevel");
}

Result<LogLevel> parse_log_level(std::string_view text) {
  if (text == "debug") return LogLevel::kDebug;
  if (text == "info") return LogLevel::kInfo;
  if (text == "warn" || text == "warning") return LogLevel::kWarn;
  if (text == "error") return LogLevel::kError;
  if (text == "off" || text == "none") return LogLevel::kOff;
  return Error{"log level",
               "expected debug|info|warn|error|off, got '" +
                   std::string(text) + "'"};
}

void LogField::append_to(std::string& out) const {
  append_quoted(out, key_);
  out.push_back(':');
  switch (kind_) {
    case Kind::kString:
      append_quoted(out, string_);
      break;
    case Kind::kInt:
      out += std::to_string(int_);
      break;
    case Kind::kUint:
      out += std::to_string(uint_);
      break;
    case Kind::kDouble:
      if (std::isfinite(double_)) {
        append_real(out, double_);
      } else {
        out += "null";  // JSON has no Inf/NaN
      }
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kRaw:
      out += string_;
      break;
  }
}

Logger::Logger() : level_(static_cast<int>(LogLevel::kWarn)),
                   file_(nullptr, std::fclose) {
  if (const char* env = std::getenv("GPUMINE_LOG_LEVEL")) {
    auto parsed = parse_log_level(env);
    if (parsed.ok()) level_.store(static_cast<int>(parsed.value()));
  }
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

Result<bool> Logger::open_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return Error{path, "cannot open log file"};
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  file_ = {f, std::fclose};
  return true;
}

void Logger::log(LogLevel level, std::string_view component,
                 std::string_view message,
                 std::initializer_list<LogField> fields) {
  if (!should_log(level)) return;

  std::uint64_t repeated = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string key(component);
    key.push_back('\x1f');
    key.append(message);
    const std::uint64_t now = monotonic_ns();
    if (repeats_.size() > kMaxRepeatKeys && repeats_.count(key) == 0) {
      repeats_.clear();
    }
    Repeat& r = repeats_[key];
    if (r.window_start_ns != 0 && now - r.window_start_ns < kRepeatWindowNs) {
      ++r.suppressed;
      return;
    }
    repeated = r.suppressed;
    r.suppressed = 0;
    r.window_start_ns = now;
  }

  std::string line;
  line.reserve(160);
  line += "{\"ts\":";
  {
    struct timespec ts;
    ::clock_gettime(CLOCK_REALTIME, &ts);
    std::array<char, 32> buf{};
    std::snprintf(buf.data(), buf.size(), "%lld.%06ld",
                  static_cast<long long>(ts.tv_sec), ts.tv_nsec / 1000);
    line += buf.data();
  }
  line += ",\"level\":\"";
  line += to_string(level);
  line += "\",\"component\":";
  append_quoted(line, component);
  line += ",\"msg\":";
  append_quoted(line, message);
  for (const LogField& field : fields) {
    line.push_back(',');
    field.append_to(line);
  }
  if (repeated != 0) line += ",\"repeated\":" + std::to_string(repeated);
  line.push_back('}');

  // Mirror into the crash-dump log ring before the sink write so crash
  // dumps carry the line even if the sink blocks.
  record_log_line(line);

  const std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = file_ ? file_.get() : stderr;
  std::fwrite(line.data(), 1, line.size(), out);
  std::fputc('\n', out);
  std::fflush(out);
}

void Logger::reset_for_tests() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    repeats_.clear();
    file_ = {nullptr, std::fclose};
  }
  LogLevel level = LogLevel::kWarn;
  if (const char* env = std::getenv("GPUMINE_LOG_LEVEL")) {
    auto parsed = parse_log_level(env);
    if (parsed.ok()) level = parsed.value();
  }
  set_level(level);
}

}  // namespace gpumine
