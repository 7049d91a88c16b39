#include "common/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/ensure.hpp"
#include "common/json.hpp"

namespace gpumine {
namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool valid_label_name(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

// Exposition-format sample values: integers render exactly, everything
// else gets the shortest %g that round-trips (so 0.1 prints as "0.1",
// not 17 digits of noise); infinities use the spelling Prometheus
// expects.
std::string fmt_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == std::rint(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  for (int precision = 1; precision < 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void append_escaped_label_value(std::string& out, const std::string& v) {
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

void append_escaped_help(std::string& out, const std::string& v) {
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

// `{k1="v1",k2="v2"}` (empty string when there are no labels); `extra`
// appends one more pair, used for the histogram `le` label.
std::string render_labels(const MetricLabels& labels,
                          const std::pair<std::string, std::string>* extra) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  auto add = [&](const std::string& k, const std::string& v) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    append_escaped_label_value(out, v);
    out += '"';
  };
  for (const auto& [k, v] : labels) add(k, v);
  if (extra != nullptr) add(extra->first, extra->second);
  out += '}';
  return out;
}

const char* type_name(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  GPUMINE_ENSURE(false, "unknown MetricType");
}

std::string join(std::span<const MetricValue> values, char separator) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += separator;
    out += values[i].to_string();
  }
  return out;
}

class JsonSink final : public MetricSink {
 public:
  [[nodiscard]] std::string str() const { return out_ + '}'; }

 private:
  void put_key(std::string_view key) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
    if (key.empty()) return;  // an array element
    out_ += '"';
    append_json_escaped(out_, key);
    out_ += "\":";
  }
  void on_value(std::string_view key, MetricValue value, const MetricFamily&,
                const MetricLabels&) override {
    if (key.empty()) return;
    put_key(key);
    out_ += value.to_string();
  }
  void on_list(std::string_view key, std::span<const MetricValue> values,
               const MetricFamily&, std::string_view, std::size_t) override {
    if (key.empty()) return;
    put_key(key);
    out_ += '[' + join(values, ',') + ']';
  }
  void on_text(std::string_view key, std::string_view value) override {
    if (key.empty()) return;
    put_key(key);
    out_ += '"';
    append_json_escaped(out_, value);
    out_ += '"';
  }
  void on_open(std::string_view key, bool) override { open(key, '{'); }
  void on_close() override { close('}'); }
  void on_open_list(std::string_view key) override { open(key, '['); }
  void on_close_list() override { close(']'); }
  void open(std::string_view key, char bracket) {
    put_key(key);
    out_ += bracket;
    first_.push_back(true);
  }
  void close(char bracket) {
    out_ += bracket;
    first_.pop_back();
  }

  std::string out_ = "{";
  std::vector<bool> first_{true};  // per open object or array
};

class TextSink final : public MetricSink {
 public:
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  [[nodiscard]] bool shown() const {
    return std::find(shown_.begin(), shown_.end(), false) == shown_.end();
  }
  void line(std::string_view key, const std::string& value) {
    if (key.empty() || !shown()) return;
    out_ += "  ";
    out_ += key;
    out_ += ':';
    if (!value.empty()) out_ += ' ' + value;
    out_ += '\n';
  }
  void on_title(std::string_view text) override {
    if (!shown()) return;
    out_ += text;
    out_ += ":\n";
  }
  void on_value(std::string_view key, MetricValue value, const MetricFamily&,
                const MetricLabels&) override {
    line(key, value.to_string());
  }
  void on_list(std::string_view key, std::span<const MetricValue> values,
               const MetricFamily&, std::string_view, std::size_t) override {
    line(key, join(values, ' '));
  }
  void on_text(std::string_view key, std::string_view value) override {
    line(key, std::string(value));
  }
  void on_open(std::string_view, bool ran) override { shown_.push_back(ran); }
  void on_close() override { shown_.pop_back(); }

  std::string out_;
  std::vector<bool> shown_;  // per open struct
};

class Exposition final : public MetricSink {
 public:
  // Families sorted by name, each with its series sorted by labels.
  [[nodiscard]] std::string render() const {
    std::string out;
    for (const auto& [name, family] : families_) {
      out += "# HELP " + name + ' ';
      append_escaped_help(out, family.help);
      out += "\n# TYPE " + name + ' ' + type_name(family.type) + '\n';
      for (const Series& s : family.series) {
        const std::string labels = render_labels(s.labels, nullptr);
        if (family.type != MetricType::kHistogram) {
          out += name + labels + ' ' + fmt_value(s.value) + '\n';
          continue;
        }
        for (std::size_t i = 0; i < s.cumulative.size(); ++i) {
          const std::pair<std::string, std::string> le{
              "le", i < s.bounds.size() ? fmt_value(s.bounds[i]) : "+Inf"};
          out += name + "_bucket" + render_labels(s.labels, &le) + ' ' +
                 fmt_value(static_cast<double>(s.cumulative[i])) + '\n';
        }
        out += name + "_sum" + labels + ' ' + fmt_value(s.sum) + '\n';
        out += name + "_count" + labels + ' ' +
               fmt_value(static_cast<double>(s.cumulative.back())) + '\n';
      }
    }
    return out;
  }

 private:
  struct Series {
    MetricLabels labels;  // key-sorted
    double value = 0.0;
    // Histograms only: bounds without +Inf, cumulative counts with it.
    std::vector<double> bounds;
    std::vector<std::uint64_t> cumulative;
    double sum = 0.0;
  };
  struct Family {
    MetricType type = MetricType::kGauge;
    std::string help;
    std::vector<Series> series;  // label-sorted
  };

  Series& add(const MetricFamily& family, MetricLabels labels) {
    std::sort(labels.begin(), labels.end());
    Family& f = families_[std::string(family.name)];
    f.type = family.type;
    f.help = std::string(family.help);
    const auto at = std::lower_bound(
        f.series.begin(), f.series.end(), labels,
        [](const Series& s, const MetricLabels& l) { return s.labels < l; });
    Series series;
    series.labels = std::move(labels);
    return *f.series.insert(at, std::move(series));
  }
  void on_value(std::string_view, MetricValue value,
                const MetricFamily& family,
                const MetricLabels& labels) override {
    if (!family.name.empty()) add(family, labels).value = value.as_double();
  }
  void on_list(std::string_view, std::span<const MetricValue> values,
               const MetricFamily& family, std::string_view label,
               std::size_t first) override {
    if (family.name.empty()) return;
    for (std::size_t i = 0; i < values.size(); ++i) {
      add(family, {{std::string(label), std::to_string(first + i)}}).value =
          values[i].as_double();
    }
  }
  void on_histogram(const MetricFamily& family, const MetricLabels& labels,
                    std::span<const double> bounds,
                    std::span<const std::uint64_t> counts,
                    double sum) override {
    GPUMINE_ENSURE(counts.size() == bounds.size() + 1,
                   "histogram needs one count per bound plus +Inf");
    Series& series = add(family, labels);
    series.bounds.assign(bounds.begin(), bounds.end());
    std::uint64_t running = 0;
    for (const std::uint64_t n : counts) {
      series.cumulative.push_back(running += n);
    }
    series.sum = sum;
  }

  std::map<std::string, Family, std::less<>> families_;
};

}  // namespace

std::string MetricValue::to_string() const {
  if (is_count_) return std::to_string(count_);
  std::string out;
  append_real(out, real_);
  return out;
}

std::string render_metrics(MetricFormat format,
                           const std::function<void(MetricSink&)>& fields) {
  switch (format) {
    case MetricFormat::kJson: {
      JsonSink sink;
      fields(sink);
      return sink.str();
    }
    case MetricFormat::kStats: {
      TextSink sink;
      fields(sink);
      return sink.str();
    }
    case MetricFormat::kExposition: {
      Exposition sink;
      fields(sink);
      return sink.render();
    }
  }
  GPUMINE_ENSURE(false, "unknown MetricFormat");
}

namespace {

// --- exposition-format lint -------------------------------------------------

struct ParsedSample {
  std::string name;
  MetricLabels labels;  // in document order
  double value = 0.0;
};

// Parses `name{k="v",...} value [timestamp]`. Returns false with
// `error` set on malformed input.
bool parse_sample(const std::string& line, ParsedSample* out,
                  std::string* error) {
  std::size_t pos = 0;
  std::size_t name_end = pos;
  while (name_end < line.size() && line[name_end] != '{' &&
         line[name_end] != ' ' && line[name_end] != '\t') {
    ++name_end;
  }
  out->name = line.substr(pos, name_end - pos);
  if (!valid_metric_name(out->name)) {
    *error = "invalid metric name '" + out->name + "'";
    return false;
  }
  pos = name_end;
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      std::size_t key_end = pos;
      while (key_end < line.size() && line[key_end] != '=') ++key_end;
      if (key_end >= line.size()) {
        *error = "unterminated label pair";
        return false;
      }
      std::string key = line.substr(pos, key_end - pos);
      if (!valid_label_name(key)) {
        *error = "invalid label name '" + key + "'";
        return false;
      }
      if (key.rfind("__", 0) == 0) {
        *error = "reserved label name '" + key + "'";
        return false;
      }
      pos = key_end + 1;
      if (pos >= line.size() || line[pos] != '"') {
        *error = "label value for '" + key + "' is not quoted";
        return false;
      }
      ++pos;
      std::string value;
      while (pos < line.size() && line[pos] != '"') {
        if (line[pos] == '\\') {
          if (pos + 1 >= line.size()) {
            *error = "dangling escape in label value";
            return false;
          }
          char esc = line[pos + 1];
          if (esc == 'n') {
            value += '\n';
          } else if (esc == '\\' || esc == '"') {
            value += esc;
          } else {
            *error = "invalid escape in label value";
            return false;
          }
          pos += 2;
        } else {
          value += line[pos++];
        }
      }
      if (pos >= line.size()) {
        *error = "unterminated label value";
        return false;
      }
      ++pos;  // closing quote
      out->labels.emplace_back(std::move(key), std::move(value));
      if (pos < line.size() && line[pos] == ',') ++pos;
    }
    if (pos >= line.size() || line[pos] != '}') {
      *error = "unterminated label block";
      return false;
    }
    ++pos;
  }
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  std::size_t value_end = pos;
  while (value_end < line.size() && line[value_end] != ' ' &&
         line[value_end] != '\t') {
    ++value_end;
  }
  std::string value_str = line.substr(pos, value_end - pos);
  if (value_str.empty()) {
    *error = "sample has no value";
    return false;
  }
  if (value_str == "+Inf" || value_str == "Inf") {
    out->value = std::numeric_limits<double>::infinity();
  } else if (value_str == "-Inf") {
    out->value = -std::numeric_limits<double>::infinity();
  } else if (value_str == "NaN") {
    out->value = std::numeric_limits<double>::quiet_NaN();
  } else {
    char* end = nullptr;
    out->value = std::strtod(value_str.c_str(), &end);
    if (end != value_str.c_str() + value_str.size()) {
      *error = "unparseable sample value '" + value_str + "'";
      return false;
    }
  }
  // Anything left after the value must be an integer timestamp.
  pos = value_end;
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  if (pos < line.size()) {
    std::size_t ts = pos;
    if (line[ts] == '-') ++ts;
    if (ts >= line.size()) {
      *error = "trailing garbage after value";
      return false;
    }
    for (; ts < line.size(); ++ts) {
      if (!std::isdigit(static_cast<unsigned char>(line[ts]))) {
        *error = "trailing garbage after value";
        return false;
      }
    }
  }
  return true;
}

// Per-histogram-series state keyed by the label set minus `le`.
struct HistogramSeries {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  bool has_sum = false;
  bool has_count = false;
  double count = 0.0;
};

struct FamilyState {
  bool has_help = false;
  bool has_type = false;
  std::string type;
  bool sampled = false;
  std::unordered_map<std::string, HistogramSeries> histograms;
};

std::string labels_key(const MetricLabels& labels, bool drop_le) {
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key;
  for (const auto& [k, v] : sorted) {
    if (drop_le && k == "le") continue;
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1e';
  }
  return key;
}

Error lint_error(std::size_t line_no, const std::string& message) {
  return Error{"metrics line " + std::to_string(line_no), message};
}

Result<std::size_t> check_histogram_family(const std::string& name,
                                           const FamilyState& state,
                                           std::size_t line_no) {
  for (const auto& [labels, h] : state.histograms) {
    auto buckets = h.buckets;
    std::stable_sort(buckets.begin(), buckets.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    if (buckets.empty() || !std::isinf(buckets.back().first)) {
      return lint_error(line_no,
                        "histogram '" + name + "' is missing a +Inf bucket");
    }
    for (std::size_t i = 1; i < buckets.size(); ++i) {
      if (buckets[i].first == buckets[i - 1].first) {
        return lint_error(line_no, "histogram '" + name +
                                       "' has duplicate le buckets");
      }
      if (buckets[i].second < buckets[i - 1].second) {
        return lint_error(line_no,
                          "histogram '" + name +
                              "' bucket counts are not cumulative");
      }
    }
    if (!h.has_sum || !h.has_count) {
      return lint_error(line_no, "histogram '" + name +
                                     "' is missing _sum or _count");
    }
    if (buckets.back().second != h.count) {
      return lint_error(line_no, "histogram '" + name +
                                     "' +Inf bucket disagrees with _count");
    }
  }
  return std::size_t{0};
}

}  // namespace

Result<std::size_t> validate_prometheus_text(const std::string& text) {
  if (text.empty()) return Error{"metrics", "document is empty"};
  std::unordered_map<std::string, FamilyState> families;
  std::unordered_set<std::string> closed;
  std::unordered_set<std::string> seen_series;
  std::string current;
  std::size_t series = 0;

  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;

  auto enter_family = [&](const std::string& name,
                          std::size_t at) -> Result<std::size_t> {
    if (name != current) {
      if (!current.empty()) {
        closed.insert(current);
        const FamilyState& done = families[current];
        if (done.type == "histogram") {
          auto check = check_histogram_family(current, done, at);
          if (!check.ok()) return check;
        }
      }
      if (closed.count(name) != 0) {
        return lint_error(at, "family '" + name +
                                  "' is interleaved with other families");
      }
      current = name;
    }
    return std::size_t{0};
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream hdr(line);
      std::string hash, kind, name;
      hdr >> hash >> kind >> name;
      if (kind != "HELP" && kind != "TYPE") continue;  // plain comment
      if (!valid_metric_name(name)) {
        return lint_error(line_no, "invalid metric name in " + kind);
      }
      auto entered = enter_family(name, line_no);
      if (!entered.ok()) return entered;
      FamilyState& fam = families[name];
      if (fam.sampled) {
        return lint_error(line_no,
                          kind + " for '" + name + "' appears after samples");
      }
      if (kind == "HELP") {
        if (fam.has_help) {
          return lint_error(line_no, "duplicate HELP for '" + name + "'");
        }
        fam.has_help = true;
      } else {
        if (fam.has_type) {
          return lint_error(line_no, "duplicate TYPE for '" + name + "'");
        }
        std::string type;
        hdr >> type;
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return lint_error(line_no,
                            "unknown TYPE '" + type + "' for '" + name + "'");
        }
        fam.has_type = true;
        fam.type = type;
      }
      continue;
    }

    ParsedSample sample;
    std::string parse_err;
    if (!parse_sample(line, &sample, &parse_err)) {
      return lint_error(line_no, parse_err);
    }
    {
      std::unordered_set<std::string> keys;
      for (const auto& [k, v] : sample.labels) {
        if (!keys.insert(k).second) {
          return lint_error(line_no, "duplicate label '" + k + "'");
        }
      }
    }

    // Map _bucket/_sum/_count samples back to their histogram family.
    std::string family_name = sample.name;
    bool is_bucket = false, is_sum = false, is_count = false;
    for (const auto& [suffix, flag] :
         {std::pair<const char*, bool*>{"_bucket", &is_bucket},
          {"_sum", &is_sum},
          {"_count", &is_count}}) {
      std::string_view sv(sample.name);
      std::string_view suf(suffix);
      if (sv.size() > suf.size() &&
          sv.substr(sv.size() - suf.size()) == suf) {
        std::string base(sv.substr(0, sv.size() - suf.size()));
        auto it = families.find(base);
        if (it != families.end() && it->second.type == "histogram") {
          family_name = base;
          *flag = true;
          break;
        }
      }
    }

    auto entered = enter_family(family_name, line_no);
    if (!entered.ok()) return entered;
    FamilyState& fam = families[family_name];
    if (!fam.has_help || !fam.has_type) {
      return lint_error(line_no, "sample for '" + family_name +
                                     "' before its HELP and TYPE");
    }
    fam.sampled = true;

    std::string series_key =
        sample.name + '\x1d' + labels_key(sample.labels, /*drop_le=*/false);
    if (!seen_series.insert(series_key).second) {
      return lint_error(line_no, "duplicate series '" + sample.name + "'");
    }
    ++series;

    if (fam.type == "counter") {
      if (std::isnan(sample.value) || sample.value < 0.0 ||
          std::isinf(sample.value)) {
        return lint_error(line_no, "counter '" + sample.name +
                                       "' has a non-monotone-capable value");
      }
    }
    if (fam.type == "histogram") {
      HistogramSeries& h =
          fam.histograms[labels_key(sample.labels, /*drop_le=*/true)];
      if (is_bucket) {
        const std::string* le = nullptr;
        for (const auto& [k, v] : sample.labels) {
          if (k == "le") le = &v;
        }
        if (le == nullptr) {
          return lint_error(line_no, "histogram bucket without an le label");
        }
        double bound;
        if (*le == "+Inf") {
          bound = std::numeric_limits<double>::infinity();
        } else {
          char* end = nullptr;
          bound = std::strtod(le->c_str(), &end);
          if (end != le->c_str() + le->size()) {
            return lint_error(line_no, "unparseable le value '" + *le + "'");
          }
        }
        h.buckets.emplace_back(bound, sample.value);
      } else if (is_sum) {
        h.has_sum = true;
      } else if (is_count) {
        h.has_count = true;
        h.count = sample.value;
      } else {
        return lint_error(line_no, "unexpected bare sample '" + sample.name +
                                       "' in histogram family");
      }
    }
  }

  if (!current.empty()) {
    const FamilyState& done = families[current];
    if (done.type == "histogram") {
      auto check = check_histogram_family(current, done, line_no);
      if (!check.ok()) return check;
    }
  }
  if (series == 0) return Error{"metrics", "document has no samples"};
  return series;
}

Result<std::size_t> validate_prometheus_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error{path, "cannot open metrics file"};
  std::ostringstream buf;
  buf << in.rdbuf();
  auto result = validate_prometheus_text(buf.str());
  if (!result.ok()) {
    return Error{path, result.error().to_string()};
  }
  return result;
}

}  // namespace gpumine
