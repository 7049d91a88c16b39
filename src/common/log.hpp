// Structured, leveled JSON logging.
//
// One log record is one flat JSON object on one line:
//   {"ts":1754640000.123456,"level":"warn","component":"serve",
//    "msg":"slow query","latency_ms":152.4,"target":"/query?..."}
//
// Records below the active level cost one relaxed atomic load. The sink
// is stderr by default or a file via open_file(); the initial level
// comes from the GPUMINE_LOG_LEVEL environment variable (debug, info,
// warn, error, off — default warn, so library code can log liberally
// without polluting CLI output that tests assert on).
//
// Identical (component, message) pairs are rate-limited: within a one
// second window only the first record is emitted; the next record after
// the window closes carries a "repeated":N field accounting for the
// suppressed ones. Every emitted line is also mirrored into the crash
// dump's log ring (record_log_line, common/trace.hpp) so crash dumps
// carry recent log context.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/result.hpp"

namespace gpumine {

enum class LogLevel { kDebug = 0, kInfo, kWarn, kError, kOff };

[[nodiscard]] const char* to_string(LogLevel level);

/// Parses "debug" / "info" / "warn" / "error" / "off".
[[nodiscard]] Result<LogLevel> parse_log_level(std::string_view text);

/// One key/value field of a log record. Implicit constructors let call
/// sites write {"key", value} for strings, integers, doubles and bools;
/// raw() embeds pre-rendered JSON (arrays/objects) verbatim.
class LogField {
 public:
  LogField(std::string_view key, std::string_view value)
      : key_(key), kind_(Kind::kString), string_(value) {}
  LogField(std::string_view key, const char* value)
      : LogField(key, std::string_view(value)) {}
  LogField(std::string_view key, const std::string& value)
      : LogField(key, std::string_view(value)) {}
  LogField(std::string_view key, std::int64_t value)
      : key_(key), kind_(Kind::kInt), int_(value) {}
  LogField(std::string_view key, int value)
      : LogField(key, static_cast<std::int64_t>(value)) {}
  LogField(std::string_view key, std::uint64_t value)
      : key_(key), kind_(Kind::kUint), uint_(value) {}
  LogField(std::string_view key, double value)
      : key_(key), kind_(Kind::kDouble), double_(value) {}
  LogField(std::string_view key, bool value)
      : key_(key), kind_(Kind::kBool), bool_(value) {}

  /// `json` must be a complete JSON value; it is embedded unquoted.
  [[nodiscard]] static LogField raw(std::string_view key,
                                    std::string_view json) {
    LogField f(key, json);
    f.kind_ = Kind::kRaw;
    return f;
  }

  void append_to(std::string& out) const;
  [[nodiscard]] const std::string& key() const { return key_; }

 private:
  enum class Kind { kString, kInt, kUint, kDouble, kBool, kRaw };
  std::string key_;
  Kind kind_;
  std::string string_;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  bool bool_ = false;
};

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  [[nodiscard]] LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] bool should_log(LogLevel level) const {
    return static_cast<int>(level) >=
           level_.load(std::memory_order_relaxed);
  }

  /// Redirects the sink from stderr to `path` (append mode).
  [[nodiscard]] Result<bool> open_file(const std::string& path);

  void log(LogLevel level, std::string_view component,
           std::string_view message,
           std::initializer_list<LogField> fields = {});

  /// Flushes and closes a file sink, restores the stderr sink, drops
  /// suppression state and restores the level from the environment (or
  /// the default). Test-only.
  void reset_for_tests();

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

 private:
  Logger();

  std::atomic<int> level_;
  std::mutex mutex_;
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file_;
  // (component \x1f message) -> suppression window state.
  struct Repeat {
    std::uint64_t window_start_ns = 0;
    std::uint64_t suppressed = 0;
  };
  std::unordered_map<std::string, Repeat> repeats_;
};

/// Convenience wrappers; `component` names the subsystem ("serve",
/// "mine", "cli", ...).
inline void log_debug(std::string_view component, std::string_view message,
                      std::initializer_list<LogField> fields = {}) {
  Logger& logger = Logger::instance();
  if (logger.should_log(LogLevel::kDebug)) {
    logger.log(LogLevel::kDebug, component, message, fields);
  }
}
inline void log_info(std::string_view component, std::string_view message,
                     std::initializer_list<LogField> fields = {}) {
  Logger& logger = Logger::instance();
  if (logger.should_log(LogLevel::kInfo)) {
    logger.log(LogLevel::kInfo, component, message, fields);
  }
}
inline void log_warn(std::string_view component, std::string_view message,
                     std::initializer_list<LogField> fields = {}) {
  Logger& logger = Logger::instance();
  if (logger.should_log(LogLevel::kWarn)) {
    logger.log(LogLevel::kWarn, component, message, fields);
  }
}
inline void log_error(std::string_view component, std::string_view message,
                      std::initializer_list<LogField> fields = {}) {
  Logger& logger = Logger::instance();
  if (logger.should_log(LogLevel::kError)) {
    logger.log(LogLevel::kError, component, message, fields);
  }
}

}  // namespace gpumine
