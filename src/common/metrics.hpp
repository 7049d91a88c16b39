// One metrics schema, three renderings.
//
// Every metrics struct has a free `describe(const T&, MetricSink&)` that
// lists each of its fields once, in order: the JSON key and, for a field
// that is exported, its Prometheus family (name, type, help) and labels.
// Three sinks render that list:
//
//   * render_json(m)        one JSON object (`--stats-json`, `/stats`):
//                           counts print as integers, reals as %.6g;
//   * render_stats(m)       `--stats` text: a `title:` line per struct,
//                           then one `key: value` line per field;
//   * render_exposition(m)  Prometheus text exposition format 0.0.4
//                           (`--metrics-out`, `/metrics`).
//
// An empty key leaves a field out of JSON and `--stats` (a series the
// exposition derives from other fields); an empty family name leaves it
// out of the exposition. A nested struct equal to a default-constructed
// one (a stage that did not run) is hidden from `--stats` only.
//
// The exposition sorts families by name and series by their key-sorted
// labels, so its output does not depend on the order in which fields
// were listed; histograms render as cumulative `_bucket`/`_sum`/`_count`
// with an explicit `+Inf` le. validate_prometheus_text() is the matching
// self-contained lint used by tests, `serve --check`, and the
// `metrics-check` subcommand.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace gpumine {

enum class MetricType { kCounter, kGauge, kHistogram };

/// A Prometheus metric family. An empty name keeps a field out of the
/// exposition.
struct MetricFamily {
  std::string_view name;
  MetricType type = MetricType::kGauge;
  std::string_view help;
};

/// Label pairs of one series, in any order.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// A field's value: a count, which JSON and `--stats` print as an
/// integer, or a real, which they print as %.6g. Implicit, so describe()
/// passes struct fields as they are.
class MetricValue {
 public:
  MetricValue(std::uint64_t count) : count_(count), is_count_(true) {}
  MetricValue(double real) : real_(real) {}

  [[nodiscard]] double as_double() const {
    return is_count_ ? static_cast<double>(count_) : real_;
  }
  [[nodiscard]] std::string to_string() const;

 private:
  std::uint64_t count_ = 0;
  double real_ = 0.0;
  bool is_count_ = false;
};

/// Receives a metrics struct's fields from its describe(). describe()
/// calls the public members; each sink overrides the hooks it renders.
class MetricSink {
 public:
  /// The `--stats` heading of the struct being described.
  void title(std::string_view text) { on_title(text); }

  /// A numeric field.
  void value(std::string_view key, MetricValue value,
             const MetricFamily& family = {},
             const MetricLabels& labels = {}) {
    on_value(key, value, family, labels);
  }

  /// A list field. In the exposition element i is the series labeled
  /// `label`="first + i".
  template <typename List>
  void list(std::string_view key, const List& values,
            const MetricFamily& family, std::string_view label,
            std::size_t first = 0) {
    const std::vector<MetricValue> copy(std::begin(values), std::end(values));
    on_list(key, copy, family, label, first);
  }

  /// A string field (JSON and `--stats` only).
  void text(std::string_view key, std::string_view value) {
    on_text(key, value);
  }

  /// A histogram (exposition only): counts[i] observations fell at or
  /// below bounds[i]; the one extra last count is the +Inf bucket.
  void histogram(const MetricFamily& family, const MetricLabels& labels,
                 std::span<const double> bounds,
                 std::span<const std::uint64_t> counts, double sum) {
    on_histogram(family, labels, bounds, counts, sum);
  }

  /// A nested metrics struct under `key`; `--stats` hides it while it
  /// equals a default-constructed one.
  template <typename T>
  void nested(std::string_view key, const T& metrics) {
    on_open(key, !(metrics == T{}));
    describe(metrics, *this);
    on_close();
  }

  /// A list of nested metrics structs under `key`.
  template <typename T>
  void nested_list(std::string_view key, const std::vector<T>& items) {
    on_open_list(key);
    for (const T& item : items) {
      on_open({}, true);
      describe(item, *this);
      on_close();
    }
    on_close_list();
  }

 protected:
  ~MetricSink() = default;  // sinks live on the stack, never deleted here

  virtual void on_title(std::string_view /*text*/) {}
  virtual void on_value(std::string_view /*key*/, MetricValue /*value*/,
                        const MetricFamily& /*family*/,
                        const MetricLabels& /*labels*/) {}
  virtual void on_list(std::string_view /*key*/,
                       std::span<const MetricValue> /*values*/,
                       const MetricFamily& /*family*/,
                       std::string_view /*label*/, std::size_t /*first*/) {}
  virtual void on_text(std::string_view /*key*/,
                       std::string_view /*value*/) {}
  virtual void on_histogram(const MetricFamily& /*family*/,
                            const MetricLabels& /*labels*/,
                            std::span<const double> /*bounds*/,
                            std::span<const std::uint64_t> /*counts*/,
                            double /*sum*/) {}
  virtual void on_open(std::string_view /*key*/, bool /*ran*/) {}
  virtual void on_close() {}
  virtual void on_open_list(std::string_view /*key*/) {}
  virtual void on_close_list() {}
};

/// The renderings of a field list.
enum class MetricFormat {
  kJson,        // one JSON object
  kStats,       // `--stats` text
  kExposition,  // Prometheus text exposition format 0.0.4
};

/// Renders what `fields` lists into a fresh sink for `format`. The
/// Exposition sink is single-threaded and built once per call.
[[nodiscard]] std::string render_metrics(
    MetricFormat format, const std::function<void(MetricSink&)>& fields);

/// describe(metrics) as one JSON object (`--stats-json`, `/stats`).
template <typename T>
[[nodiscard]] std::string render_json(const T& metrics) {
  return render_metrics(MetricFormat::kJson,
                        [&](MetricSink& sink) { describe(metrics, sink); });
}

/// describe(metrics) as `--stats` text.
template <typename T>
[[nodiscard]] std::string render_stats(const T& metrics) {
  return render_metrics(MetricFormat::kStats,
                        [&](MetricSink& sink) { describe(metrics, sink); });
}

/// describe(metrics) as an exposition document (`--metrics-out`,
/// `/metrics`).
template <typename T>
[[nodiscard]] std::string render_exposition(const T& metrics) {
  return render_metrics(MetricFormat::kExposition,
                        [&](MetricSink& sink) { describe(metrics, sink); });
}

/// Lints a text exposition document the way `promtool check metrics`
/// would: every sample's family declares `# HELP` and `# TYPE` first,
/// metric and label names are well-formed, no series appears twice,
/// families are not interleaved, counter samples are finite and
/// non-negative, and each histogram carries a `+Inf` bucket with
/// cumulative (monotone) bucket counts that agree with `_count`.
/// Returns the number of distinct series on success.
[[nodiscard]] Result<std::size_t> validate_prometheus_text(
    const std::string& text);

/// Same check over a file on disk.
[[nodiscard]] Result<std::size_t> validate_prometheus_file(
    const std::string& path);

}  // namespace gpumine
