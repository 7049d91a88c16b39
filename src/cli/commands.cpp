#include "cli/commands.hpp"

#include "analysis/compare.hpp"
#include "analysis/drilldown.hpp"
#include "analysis/summarize.hpp"
#include "core/negative.hpp"
#include "core/significance.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/report.hpp"
#include "analysis/workflow.hpp"
#include "cli/args.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "analysis/classifier.hpp"
#include "analysis/export.hpp"
#include "core/closed.hpp"
#include "core/snapshot.hpp"
#include "prep/csv.hpp"
#include "serve/handler.hpp"
#include "serve/query_engine.hpp"
#include "serve/server.hpp"
#include "trace/rng.hpp"
#include "synth/pai.hpp"
#include "synth/philly.hpp"
#include "synth/supercloud.hpp"

namespace gpumine::cli {
namespace {

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream stream(csv);
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

// Reports unknown flags; returns false (and sets the exit path) on any.
bool reject_unused(const Args& args, std::ostream& err) {
  const auto unused = args.unused();
  for (const auto& name : unused) {
    err << "unknown flag --" << name << "\n";
  }
  return unused.empty();
}

// Rule and pruning thresholds, shared by every command that generates
// rules: from a CSV, or replayed from a saved snapshot (`mine --load`,
// `snapshot --from-itemsets`).
struct RuleFlags {
  core::RuleParams rules;
  core::PruneParams pruning;
};

// Runs a params struct's own validate() after one more flag has been
// copied into it, so an out-of-range value is reported against that
// flag with the library's message; the CLI does not restate the ranges.
template <typename Params>
std::optional<Error> check_flag(const Params& params, const char* flag) {
  try {
    params.validate();
  } catch (const std::invalid_argument& e) {
    // Drop the source location GPUMINE_CHECK_ARG puts before the message.
    const std::string what = e.what();
    const std::size_t at = what.rfind("): ");
    return Error{flag, at == std::string::npos ? what : what.substr(at + 3)};
  }
  return std::nullopt;
}

Result<RuleFlags> parse_rule_flags(const Args& args) {
  const auto min_lift = args.get_double("min-lift", 1.5);
  if (!min_lift.ok()) return min_lift.error();
  const auto c_lift = args.get_double("c-lift", 1.5);
  if (!c_lift.ok()) return c_lift.error();
  const auto c_supp = args.get_double("c-supp", 1.5);
  if (!c_supp.ok()) return c_supp.error();
  const auto threads = args.get_uint("threads", 1);
  if (!threads.ok()) return threads.error();
  RuleFlags flags;
  flags.rules.min_lift = min_lift.value();
  if (auto bad = check_flag(flags.rules, "--min-lift")) return *bad;
  flags.rules.num_threads = static_cast<std::size_t>(threads.value());
  flags.pruning.c_lift = c_lift.value();
  if (auto bad = check_flag(flags.pruning, "--c-lift")) return *bad;
  flags.pruning.c_supp = c_supp.value();
  if (auto bad = check_flag(flags.pruning, "--c-supp")) return *bad;
  return flags;
}

// Shared CSV -> WorkflowConfig assembly for the commands that mine a
// trace CSV. parse_trace_flags reads every flag and touches no file, so
// a command can reject unknown flags before it pays for a parse;
// read_trace then reads the CSV and bins its numeric columns.
struct TraceFlags {
  std::string path;
  prep::CsvParams csv;
  analysis::WorkflowConfig config;
};

struct LoadedTrace {
  prep::Table table;
  analysis::WorkflowConfig config;
  double csv_seconds = 0.0;  // CSV parse wall time, for --stats
};

Result<TraceFlags> parse_trace_flags(const Args& args) {
  const auto path = args.get("csv");
  if (!path.has_value() || path->empty()) {
    return Error{"--csv", "required: path to the trace CSV"};
  }
  const auto min_support = args.get_double("min-support", 0.05);
  if (!min_support.ok()) return min_support.error();
  const auto max_length = args.get_uint("max-length", 5);
  if (!max_length.ok()) return max_length.error();
  core::MiningParams mining;
  mining.min_support = min_support.value();
  if (auto bad = check_flag(mining, "--min-support")) return *bad;
  mining.max_length = static_cast<std::size_t>(max_length.value());
  if (auto bad = check_flag(mining, "--max-length")) return *bad;
  const auto rule_flags = parse_rule_flags(args);
  if (!rule_flags.ok()) return rule_flags.error();
  const std::size_t threads = rule_flags.value().rules.num_threads;

  TraceFlags flags;
  flags.path = *path;
  flags.csv.force_categorical =
      split_list(args.get_or("categorical", "job_id"));
  // --threads drives the CSV parser's chunking too.
  flags.csv.num_threads = threads;
  analysis::WorkflowConfig& config = flags.config;
  config.mining = mining;
  // Rule generation and the prep stages share the mining worker count.
  config.mining.num_threads = threads;
  config.prep_threads = threads;
  config.rules = rule_flags.value().rules;
  config.pruning = rule_flags.value().pruning;
  config.drop_columns = split_list(args.get_or("drop", "job_id"));
  config.encoder.bare_label_columns = split_list(args.get_or("bare", ""));
  for (const std::string& column : split_list(args.get_or("group", ""))) {
    prep::ShareGroupingParams grouping;
    grouping.top_label = "Freq " + column;
    grouping.middle_label = "Regular " + column;
    grouping.bottom_label = "New " + column;
    config.groupings.push_back({column, grouping});
  }
  return flags;
}

Result<LoadedTrace> read_trace(TraceFlags flags) {
  const auto csv_begin = std::chrono::steady_clock::now();
  auto parsed = prep::read_csv_file(flags.path, flags.csv);
  if (!parsed.ok()) return parsed.error();

  LoadedTrace loaded{std::move(parsed).value(), std::move(flags.config), 0.0};
  loaded.csv_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - csv_begin)
                           .count();
  // Default: bin every numeric column with paper-style parameters.
  for (std::size_t c = 0; c < loaded.table.num_columns(); ++c) {
    const std::string& name = loaded.table.column_name(c);
    if (loaded.table.is_numeric(name)) {
      loaded.config.binnings.push_back({name, prep::BinningParams{}});
    }
  }
  return loaded;
}

// RAII wiring for `--trace FILE`: arms the process tracer for the span
// of one command. finish() exports the Chrome trace-event file, runs the
// exporter's self-check on what it just wrote, and reports the span
// count; it returns false (after printing why) if either step fails.
class TraceSession {
 public:
  TraceSession(const Args& args, std::ostream& err)
      : path_(args.get_or("trace", "")), err_(err) {
    if (!path_.empty()) {
      Tracer::instance().reset();
      Tracer::instance().enable();
    }
  }

  [[nodiscard]] bool active() const { return !path_.empty(); }

  bool finish(std::ostream& out) {
    if (path_.empty()) return true;
    Tracer& tracer = Tracer::instance();
    tracer.disable();
    const auto written = tracer.export_chrome_trace_file(path_);
    if (!written.ok()) {
      err_ << written.error().to_string() << "\n";
      return false;
    }
    const auto checked = validate_chrome_trace_file(path_);
    if (!checked.ok()) {
      err_ << "trace self-check failed: " << checked.error().to_string()
           << "\n";
      return false;
    }
    out << "wrote trace: " << checked.value() << " spans to " << path_
        << "\n";
    return true;
  }

 private:
  std::string path_;
  std::ostream& err_;
};

// Shared wiring for `--log-level LEVEL` and `--log-file FILE` on the
// long-running commands. Returns false (after printing why) on a bad
// level name or an unwritable file.
bool configure_logging(const Args& args, std::ostream& err) {
  if (const auto level = args.get("log-level"); level.has_value()) {
    const auto parsed = parse_log_level(*level);
    if (!parsed.ok()) {
      err << parsed.error().to_string() << "\n";
      return false;
    }
    Logger::instance().set_level(parsed.value());
  }
  if (const auto path = args.get("log-file");
      path.has_value() && !path->empty()) {
    const auto opened = Logger::instance().open_file(*path);
    if (!opened.ok()) {
      err << opened.error().to_string() << "\n";
      return false;
    }
  }
  return true;
}

// RAII wiring for `--flight-dump FILE`: arms the crash handler for the
// span of one command. On a clean exit the destructor writes an ordinary
// dump to the same path (so the file is always a loadable trace bundle,
// crash or not) and disarms, keeping in-process callers (tests) free of
// leftover signal handlers.
class FlightDumpSession {
 public:
  FlightDumpSession() = default;
  ~FlightDumpSession() {
    if (path_.empty()) return;
    (void)write_flight_dump(path_);
    disarm_crash_dump();
  }

  bool arm(const Args& args, std::ostream& err) {
    const std::string path = args.get_or("flight-dump", "");
    if (path.empty()) return true;
    const auto armed = arm_crash_dump(path);
    if (!armed.ok()) {
      err << armed.error().to_string() << "\n";
      return false;
    }
    path_ = path;
    return true;
  }

 private:
  std::string path_;
};

// Splices the name-sorted span summary into a metrics JSON object, so
// `--stats-json` files carry a `trace_spans` key (an empty array when
// the run was not traced).
std::string with_trace_spans(std::string metrics_json) {
  GPUMINE_ENSURE(!metrics_json.empty() && metrics_json.back() == '}',
                 "metrics JSON must be an object");
  metrics_json.pop_back();
  metrics_json +=
      ",\"trace_spans\":" + Tracer::instance().summary_json() + "}";
  return metrics_json;
}

bool write_text_file(const std::string& path, const std::string& text,
                     std::ostream& err) {
  std::ofstream file(path, std::ios::binary);
  file << text << "\n";
  file.flush();
  if (!file) {
    err << path << ": cannot write file\n";
    return false;
  }
  return true;
}

// Writes a Prometheus exposition document for `--metrics-out`, running
// the in-repo lint on it first so a malformed export fails loudly at
// the producer instead of at the scraper.
bool write_metrics_file(const std::string& path, const std::string& text,
                        std::ostream& out, std::ostream& err) {
  const auto checked = validate_prometheus_text(text);
  if (!checked.ok()) {
    err << "metrics self-check failed: " << checked.error().to_string()
        << "\n";
    return false;
  }
  if (!write_text_file(path, text, err)) return false;
  out << "wrote metrics: " << checked.value() << " series to " << path
      << "\n";
  return true;
}

// SIGINT/SIGTERM flag for `gpumine serve` (async-signal-safe type).
volatile std::sig_atomic_t g_serve_stop = 0;
extern "C" void handle_serve_signal(int) { g_serve_stop = 1; }

// Percent-encodes everything outside the unreserved set, so item names
// with spaces, '%', '&' or '=' survive the query-string round trip.
std::string percent_encode(const std::string& text) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(text.size());
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

}  // namespace

int run_help(std::ostream& out) {
  out << "gpumine - interpretable GPU-cluster trace analysis via "
         "association rule mining\n\n"
         "usage:\n"
         "  gpumine synth --trace pai|supercloud|philly [--jobs N] "
         "[--seed S] --out trace.csv\n"
         "  gpumine itemsets --csv trace.csv [--min-support F] "
         "[--max-length K] [--top N]\n"
         "                   [--family all|closed|maximal] [--save FILE "
         "(family all only)]\n"
         "                   [--threads N] [--stats]\n"
         "  gpumine mine (--csv trace.csv | --load FILE) --keyword ITEM "
         "[--min-support F] [--min-lift F]\n"
         "               [--c-lift F] [--c-supp F] [--bare col,..] "
         "[--group col,..] [--drop col,..]\n"
         "               [--format table|csv|json|md] [--max-rows N "
         "(table|md only)] [--threads N] [--stats]\n"
         "               [--trace FILE] [--stats-json FILE] [--metrics-out "
         "FILE] [--flight-dump FILE]\n"
         "               [--log-level debug|info|warn|error|off] "
         "[--log-file FILE]\n"
         "  gpumine predict --csv trace.csv --target ITEM [--holdout F] "
         "[--min-confidence F] [--seed N]\n"
         "  gpumine report --csv trace.csv [--principal COL] [--runtime "
         "COL] [--sm-util COL]\n"
         "                 [--status COL] [--gpus COL] "
         "[--sort idle|failed|hours|rate] [--top N]\n"
         "  gpumine digest --csv trace.csv --keyword ITEM [--max-rules N] "
         "[--fdr Q] [--negative-confidence F]\n"
         "  gpumine compare --a A.snap --b B.snap --keyword ITEM "
         "[--min-lift F]\n"
         "  gpumine snapshot (--csv trace.csv | --from-itemsets FILE) "
         "--out FILE [+ mine flags]\n"
         "  gpumine serve --snapshot FILE [--host H] [--port P] "
         "[--threads N] [--check]\n"
         "                [--trace FILE] [--stats-json FILE] [--metrics-out "
         "FILE] [--flight-dump FILE]\n"
         "                [--slow-query-ms N] [--log-level "
         "debug|info|warn|error|off] [--log-file FILE]\n"
         "  gpumine query [--host H] [--port P] (--keyword ITEM | "
         "--items A,B | --stats | --reload | --health) [--trace FILE]\n"
         "  gpumine trace-check --file trace.json\n"
         "  gpumine metrics-check --file metrics.prom\n"
         "  gpumine help\n";
  return 0;
}

int run_synth(const std::vector<std::string>& args_raw, std::ostream& out,
              std::ostream& err) {
  auto parsed = Args::parse(args_raw);
  if (!parsed.ok()) {
    err << parsed.error().to_string() << "\n";
    return 2;
  }
  const Args& args = parsed.value();
  const std::string which = args.get_or("trace", "");
  const auto jobs = args.get_uint("jobs", 20000);
  const auto seed = args.get_uint("seed", 42);
  const std::string path = args.get_or("out", "");
  if (!jobs.ok() || !seed.ok()) {
    err << (!jobs.ok() ? jobs.error() : seed.error()).to_string() << "\n";
    return 2;
  }
  if (path.empty()) {
    err << "--out is required\n";
    return 2;
  }
  if (!reject_unused(args, err)) return 2;

  prep::Table table;
  if (which == "pai") {
    synth::PaiConfig config;
    config.num_jobs = jobs.value();
    config.seed = seed.value();
    table = synth::generate_pai(config).merged();
  } else if (which == "supercloud") {
    synth::SuperCloudConfig config;
    config.num_jobs = jobs.value();
    config.seed = seed.value();
    table = synth::generate_supercloud(config).merged();
  } else if (which == "philly") {
    synth::PhillyConfig config;
    config.num_jobs = jobs.value();
    config.seed = seed.value();
    table = synth::generate_philly(config).merged();
  } else {
    err << "--trace must be pai, supercloud or philly\n";
    return 2;
  }
  const auto written = prep::write_csv_file(table, path);
  if (!written.ok()) {
    err << written.error().to_string() << "\n";
    return 1;
  }
  out << "wrote " << table.num_rows() << " jobs x " << table.num_columns()
      << " features to " << path << "\n";
  return 0;
}

int run_itemsets(const std::vector<std::string>& args_raw, std::ostream& out,
                 std::ostream& err) {
  auto parsed = Args::parse(args_raw);
  if (!parsed.ok()) {
    err << parsed.error().to_string() << "\n";
    return 2;
  }
  const Args& args = parsed.value();
  const auto top = args.get_uint("top", 25);
  const std::string save_path = args.get_or("save", "");
  const std::string family = args.get_or("family", "all");
  const bool stats = args.has("stats");
  auto flags = parse_trace_flags(args);
  if (!top.ok() || !flags.ok()) {
    err << (!top.ok() ? top.error() : flags.error()).to_string() << "\n";
    return 2;
  }
  if (family != "all" && family != "closed" && family != "maximal") {
    err << "--family must be all, closed or maximal\n";
    return 2;
  }
  if (!save_path.empty() && family != "all") {
    // Replaying regenerates rules, which needs every subset's support.
    err << "--save needs --family all (a " << family
        << " family cannot be replayed)\n";
    return 2;
  }
  if (!reject_unused(args, err)) return 2;
  auto loaded = read_trace(std::move(flags).value());
  if (!loaded.ok()) {
    err << loaded.error().to_string() << "\n";
    return 2;
  }

  LoadedTrace trace = std::move(loaded).value();
  auto mined = analysis::mine(std::move(trace.table), trace.config);
  mined.mined.metrics.prep_stage.csv_seconds = trace.csv_seconds;
  if (stats) out << render_stats(mined.mined.metrics);
  if (family == "closed") {
    mined.mined.itemsets = core::closed_itemsets(mined.mined);
  } else if (family == "maximal") {
    mined.mined.itemsets = core::maximal_itemsets(mined.mined);
  }
  if (!save_path.empty()) {
    // A snapshot with no rules: the replaying commands regenerate them
    // from their own flags.
    core::RuleSnapshot archive;
    archive.result = mined.mined;
    archive.catalog = mined.prepared.catalog;
    const auto saved = core::save_rule_snapshot_file(archive, save_path);
    if (!saved.ok()) {
      err << saved.error().to_string() << "\n";
      return 1;
    }
    out << "saved itemsets to " << save_path << "\n";
  }
  out << mined.mined.itemsets.size() << " frequent itemsets over "
      << mined.prepared.catalog.size() << " items\n";
  // Largest-support first for the "top" listing.
  auto itemsets = mined.mined.itemsets;
  std::sort(itemsets.begin(), itemsets.end(),
            [](const core::FrequentItemset& a, const core::FrequentItemset& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.items < b.items;
            });
  const std::size_t n =
      std::min<std::size_t>(itemsets.size(), top.value());
  for (std::size_t i = 0; i < n; ++i) {
    out << "  [" << itemsets[i].count << "] "
        << mined.prepared.catalog.render(itemsets[i].items) << "\n";
  }
  return 0;
}

int run_mine(const std::vector<std::string>& args_raw, std::ostream& out,
             std::ostream& err) {
  auto parsed = Args::parse(args_raw);
  if (!parsed.ok()) {
    err << parsed.error().to_string() << "\n";
    return 2;
  }
  const Args& args = parsed.value();
  const std::string keyword = args.get_or("keyword", "");
  const std::string format = args.get_or("format", "table");
  const bool stats = args.has("stats");
  const std::string stats_json_path = args.get_or("stats-json", "");
  const std::string metrics_out_path = args.get_or("metrics-out", "");
  if (!configure_logging(args, err)) return 2;
  FlightDumpSession flight;
  if (!flight.arm(args, err)) return 2;
  TraceSession session(args, err);
  const auto max_rows = args.get_uint("max-rows", 10);
  if (!max_rows.ok()) {
    err << max_rows.error().to_string() << "\n";
    return 2;
  }
  if (args.has("max-rows") && (format == "csv" || format == "json")) {
    err << "--max-rows applies to --format table|md only; " << format
        << " lists every rule\n";
    return 2;
  }
  if (keyword.empty()) {
    err << "--keyword is required (an item name, e.g. 'Failed')\n";
    return 2;
  }

  // Mining input: either a raw CSV (mined now) or a saved snapshot
  // (from `itemsets --save` or `snapshot`).
  core::MiningResult result;
  core::ItemCatalog catalog;
  analysis::WorkflowConfig config;
  if (const auto load_path = args.get("load"); load_path.has_value()) {
    auto loaded = core::load_rule_snapshot_file(*load_path);
    if (!loaded.ok()) {
      err << loaded.error().to_string() << "\n";
      return 2;
    }
    // Rules are regenerated from the flag thresholds, not the file's.
    const auto rule_flags = parse_rule_flags(args);
    if (!rule_flags.ok()) {
      err << rule_flags.error().to_string() << "\n";
      return 2;
    }
    config.rules = rule_flags.value().rules;
    config.pruning = rule_flags.value().pruning;
    core::RuleSnapshot archive = std::move(loaded).value();
    result = std::move(archive.result);
    catalog = std::move(archive.catalog);
    if (!reject_unused(args, err)) return 2;
    if (stats) {
      out << "no mining stats: --load replays saved itemsets without "
             "mining\n";
    }
  } else {
    auto flags = parse_trace_flags(args);
    if (!flags.ok()) {
      err << flags.error().to_string() << "\n";
      return 2;
    }
    if (!reject_unused(args, err)) return 2;
    auto loaded = read_trace(std::move(flags).value());
    if (!loaded.ok()) {
      err << loaded.error().to_string() << "\n";
      return 2;
    }
    LoadedTrace trace = std::move(loaded).value();
    config = trace.config;
    auto mined = analysis::mine(std::move(trace.table), config);
    result = std::move(mined.mined);
    result.metrics.prep_stage.csv_seconds = trace.csv_seconds;
    catalog = std::move(mined.prepared.catalog);
    if (stats) out << render_stats(result.metrics);
  }

  const auto keyword_id = catalog.find(keyword);
  if (!keyword_id) {
    err << "keyword '" << keyword << "' is not an encoded item\n";
    return 1;
  }
  const auto analysis = core::analyze_keyword(result, *keyword_id,
                                              config.rules, config.pruning);
  if (stats) out << render_stats(analysis.stage);
  if (stats && session.active()) {
    out << "trace spans (per name, sorted):\n"
        << Tracer::instance().summary_table();
  }
  result.metrics.rule_stage = analysis.stage;
  if (!stats_json_path.empty()) {
    if (!write_text_file(stats_json_path,
                         with_trace_spans(render_json(result.metrics)), err)) {
      return 1;
    }
  }
  if (!metrics_out_path.empty()) {
    if (!write_metrics_file(metrics_out_path,
                            render_exposition(result.metrics), out, err)) {
      return 1;
    }
  }
  if (format == "table") {
    analysis::RuleTableOptions options;
    options.max_cause = max_rows.value();
    options.max_characteristic = max_rows.value();
    out << analysis::render_rule_table(analysis, catalog, options);
  } else if (format == "csv") {
    out << analysis::rules_to_csv(analysis, catalog);
  } else if (format == "json") {
    out << analysis::rules_to_json(analysis, catalog) << "\n";
  } else if (format == "md") {
    out << analysis::rules_to_markdown(analysis, catalog, max_rows.value());
  } else {
    err << "--format must be table, csv, json or md\n";
    return 2;
  }
  return session.finish(out) ? 0 : 1;
}

int run_predict(const std::vector<std::string>& args_raw, std::ostream& out,
                std::ostream& err) {
  auto parsed = Args::parse(args_raw);
  if (!parsed.ok()) {
    err << parsed.error().to_string() << "\n";
    return 2;
  }
  const Args& args = parsed.value();
  const std::string target = args.get_or("target", "");
  const auto holdout = args.get_double("holdout", 0.3);
  const auto min_confidence = args.get_double("min-confidence", 0.7);
  const auto seed = args.get_uint("seed", 1);
  auto flags = parse_trace_flags(args);
  if (!holdout.ok() || !min_confidence.ok() || !seed.ok() || !flags.ok()) {
    const Error& e = !holdout.ok()          ? holdout.error()
                     : !min_confidence.ok() ? min_confidence.error()
                     : !seed.ok()           ? seed.error()
                                            : flags.error();
    err << e.to_string() << "\n";
    return 2;
  }
  if (target.empty()) {
    err << "--target is required (the item to predict, e.g. 'Failed')\n";
    return 2;
  }
  if (holdout.value() <= 0.0 || holdout.value() >= 1.0) {
    err << "--holdout must be in (0, 1)\n";
    return 2;
  }
  if (!reject_unused(args, err)) return 2;
  auto loaded = read_trace(std::move(flags).value());
  if (!loaded.ok()) {
    err << loaded.error().to_string() << "\n";
    return 2;
  }

  LoadedTrace trace = std::move(loaded).value();
  const auto& config = trace.config;

  // Deterministic random holdout split.
  trace::Rng rng(seed.value());
  const std::size_t rows = trace.table.num_rows();
  std::vector<bool> is_train(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    is_train[r] = !rng.bernoulli(holdout.value());
  }
  std::vector<bool> is_test = is_train;
  is_test.flip();

  auto train = analysis::mine(trace.table.filter_rows(is_train), config);
  const auto target_id = train.prepared.catalog.find(target);
  if (!target_id) {
    err << "target '" << target << "' is not an encoded item\n";
    return 1;
  }
  const auto rules = core::generate_rules(train.mined, config.rules);
  const auto cause =
      core::filter_keyword(rules, *target_id, core::KeywordSide::kConsequent);
  analysis::ClassifierParams clf_params;
  clf_params.min_confidence = min_confidence.value();
  const analysis::RuleClassifier classifier(cause, *target_id, clf_params);

  // Encode the held-out rows and remap them into the training vocabulary.
  auto test = analysis::prepare(trace.table.filter_rows(is_test), config);
  core::TransactionDb remapped;
  for (std::size_t t = 0; t < test.db.size(); ++t) {
    core::Itemset txn;
    for (core::ItemId id : test.db[t]) {
      if (const auto mapped =
              train.prepared.catalog.find(test.catalog.name(id))) {
        txn.push_back(*mapped);
      }
    }
    remapped.add(std::move(txn));
  }
  const analysis::Evaluation eval = analysis::evaluate(classifier, remapped);

  out << "train rows: " << train.prepared.db.size()
      << ", test rows: " << remapped.size()
      << ", classifier rules: " << classifier.rules().size() << "\n";
  out << "accuracy=" << eval.accuracy() << " precision=" << eval.precision()
      << " recall=" << eval.recall() << " f1=" << eval.f1() << "\n";
  const std::size_t top =
      std::min<std::size_t>(classifier.rules().size(), 5);
  for (std::size_t i = 0; i < top; ++i) {
    out << "  rule[" << i << "] "
        << analysis::render_rule(classifier.rules()[i],
                                 train.prepared.catalog)
        << "\n";
  }
  return 0;
}

int run_report(const std::vector<std::string>& args_raw, std::ostream& out,
               std::ostream& err) {
  auto parsed = Args::parse(args_raw);
  if (!parsed.ok()) {
    err << parsed.error().to_string() << "\n";
    return 2;
  }
  const Args& args = parsed.value();
  const auto csv_path = args.get("csv");
  if (!csv_path.has_value() || csv_path->empty()) {
    err << "--csv is required\n";
    return 2;
  }
  analysis::TableDrilldownSpec spec;
  spec.principal_column = args.get_or("principal", "User");
  spec.runtime_column = args.get_or("runtime", "Runtime");
  spec.gpus_column = args.get_or("gpus", "");
  spec.sm_util_column = args.get_or("sm-util", "SM Util");
  spec.status_column = args.get_or("status", "Status");
  spec.failed_label = args.get_or("failed-label", "Failed");
  spec.killed_label = args.get_or("killed-label", "Killed");

  analysis::DrilldownParams params;
  const auto top = args.get_uint("top", 10);
  if (!top.ok()) {
    err << top.error().to_string() << "\n";
    return 2;
  }
  params.top_k = top.value();
  const std::string sort = args.get_or("sort", "idle");
  if (sort == "idle") {
    params.sort = analysis::DrilldownSort::kIdleGpuHours;
  } else if (sort == "failed") {
    params.sort = analysis::DrilldownSort::kFailedGpuHours;
  } else if (sort == "hours") {
    params.sort = analysis::DrilldownSort::kGpuHours;
  } else if (sort == "rate") {
    params.sort = analysis::DrilldownSort::kFailureRate;
  } else {
    err << "--sort must be idle, failed, hours or rate\n";
    return 2;
  }
  if (!reject_unused(args, err)) return 2;

  prep::CsvParams csv;
  csv.force_categorical = {"job_id", spec.principal_column};
  auto table = prep::read_csv_file(*csv_path, csv);
  if (!table.ok()) {
    err << table.error().to_string() << "\n";
    return 2;
  }
  auto stats =
      analysis::drilldown_from_table(table.value(), spec, params);
  if (!stats.ok()) {
    err << stats.error().to_string() << "\n";
    return 2;
  }
  out << analysis::render_drilldown(stats.value());
  return 0;
}

int run_digest(const std::vector<std::string>& args_raw, std::ostream& out,
               std::ostream& err) {
  auto parsed = Args::parse(args_raw);
  if (!parsed.ok()) {
    err << parsed.error().to_string() << "\n";
    return 2;
  }
  const Args& args = parsed.value();
  const std::string keyword = args.get_or("keyword", "");
  const auto max_rules = args.get_uint("max-rules", 6);
  const auto fdr = args.get_double("fdr", 0.01);
  const auto neg_conf = args.get_double("negative-confidence", 0.7);
  const std::string exclude_list = args.get_or("exclude", "");
  auto flags = parse_trace_flags(args);
  if (!max_rules.ok() || !fdr.ok() || !neg_conf.ok() || !flags.ok()) {
    const Error& e = !max_rules.ok() ? max_rules.error()
                     : !fdr.ok()     ? fdr.error()
                     : !neg_conf.ok() ? neg_conf.error()
                                      : flags.error();
    err << e.to_string() << "\n";
    return 2;
  }
  if (keyword.empty()) {
    err << "--keyword is required\n";
    return 2;
  }
  if (!reject_unused(args, err)) return 2;
  auto loaded = read_trace(std::move(flags).value());
  if (!loaded.ok()) {
    err << loaded.error().to_string() << "\n";
    return 2;
  }

  LoadedTrace trace = std::move(loaded).value();
  const auto config = trace.config;
  auto mined = analysis::mine(std::move(trace.table), config);
  const auto& catalog = mined.prepared.catalog;
  const auto keyword_id = catalog.find(keyword);
  if (!keyword_id) {
    err << "keyword '" << keyword << "' is not an encoded item\n";
    return 1;
  }
  const auto analysis = core::analyze_keyword(mined.mined, *keyword_id,
                                              config.rules, config.pruning);

  analysis::SummarizeParams summarize;
  summarize.max_rules = max_rules.value();
  const auto digest = analysis::summarize_cause_rules(
      analysis.cause, mined.prepared.db, *keyword_id, summarize);
  out << "digest (greedy coverage of '" << keyword << "' transactions):\n";
  std::vector<core::Rule> digest_rules;
  for (const auto& entry : digest) {
    out << "  " << analysis::render_rule(entry.rule, catalog)
        << "  conf=" << entry.rule.confidence << " covers " << entry.matched
        << " (+" << entry.newly_covered << " new, cum "
        << static_cast<int>(entry.cumulative_coverage * 100.0) << "%)\n";
    digest_rules.push_back(entry.rule);
  }

  const auto certified = core::significant_rules(
      digest_rules, mined.mined.db_size, fdr.value());
  out << "certified " << certified.size() << " of " << digest_rules.size()
      << " digest rules (Fisher exact, BH q=" << fdr.value() << ")\n";

  core::NegativeRuleParams negative;
  negative.min_confidence = neg_conf.value();
  negative.mining_min_support = config.mining.min_support;
  // Tautology guard: e.g. --exclude Terminated when the keyword is
  // Failed, so "{Terminated} => NOT Failed" does not top the list.
  for (const std::string& name : split_list(exclude_list)) {
    if (const auto id = catalog.find(name)) {
      negative.excluded_antecedent_items.push_back(*id);
    }
  }
  const auto safe =
      core::generate_negative_rules(mined.mined, *keyword_id, negative);
  out << "safe patterns (X => NOT " << keyword << "): " << safe.size()
      << "\n";
  for (std::size_t i = 0; i < safe.size() && i < 5; ++i) {
    out << "  {" << catalog.render(safe[i].antecedent)
        << "}  conf=" << safe[i].confidence << " lift=" << safe[i].lift
        << "\n";
  }
  return 0;
}

int run_compare(const std::vector<std::string>& args_raw, std::ostream& out,
                std::ostream& err) {
  auto parsed = Args::parse(args_raw);
  if (!parsed.ok()) {
    err << parsed.error().to_string() << "\n";
    return 2;
  }
  const Args& args = parsed.value();
  const std::string path_a = args.get_or("a", "");
  const std::string path_b = args.get_or("b", "");
  const std::string keyword = args.get_or("keyword", "");
  const auto min_lift = args.get_double("min-lift", 1.5);
  if (!min_lift.ok()) {
    err << min_lift.error().to_string() << "\n";
    return 2;
  }
  if (path_a.empty() || path_b.empty() || keyword.empty()) {
    err << "--a FILE --b FILE --keyword ITEM are required "
           "(snapshots from `itemsets --save` or `snapshot`)\n";
    return 2;
  }
  if (!reject_unused(args, err)) return 2;

  auto loaded_a = core::load_rule_snapshot_file(path_a);
  auto loaded_b = core::load_rule_snapshot_file(path_b);
  if (!loaded_a.ok() || !loaded_b.ok()) {
    err << (!loaded_a.ok() ? loaded_a : loaded_b).error().to_string() << "\n";
    return 2;
  }
  const core::RuleSnapshot a = std::move(loaded_a).value();
  const core::RuleSnapshot b = std::move(loaded_b).value();

  core::RuleParams rule_params;
  rule_params.min_lift = min_lift.value();
  auto keyword_rules = [&](const core::RuleSnapshot& archive)
      -> std::vector<core::Rule> {
    const auto id = archive.catalog.find(keyword);
    if (!id) return {};
    return core::filter_keyword(
        core::generate_rules(archive.result, rule_params), *id);
  };
  const auto rules_a = keyword_rules(a);
  const auto rules_b = keyword_rules(b);
  const auto cmp =
      analysis::compare_rule_sets(rules_a, a.catalog, rules_b, b.catalog);
  out << "A: " << rules_a.size() << " keyword rules; B: " << rules_b.size()
      << "; shared: " << cmp.matched.size()
      << " (Jaccard " << cmp.jaccard_overlap() << ")\n";
  if (!cmp.matched.empty()) {
    out << "on shared rules: mean |d conf| = " << cmp.mean_abs_conf_delta()
        << ", mean |d lift| = " << cmp.mean_abs_lift_delta() << "\n";
  }
  const auto show = [&](const char* title,
                        const std::vector<core::Rule>& rules,
                        const core::ItemCatalog& catalog) {
    out << title << " (" << rules.size() << "):\n";
    for (std::size_t i = 0; i < rules.size() && i < 3; ++i) {
      out << "  " << analysis::render_rule(rules[i], catalog) << "\n";
    }
  };
  show("only in A", cmp.only_a, a.catalog);
  show("only in B", cmp.only_b, b.catalog);
  return 0;
}

int run_snapshot(const std::vector<std::string>& args_raw, std::ostream& out,
                 std::ostream& err) {
  auto parsed = Args::parse(args_raw);
  if (!parsed.ok()) {
    err << parsed.error().to_string() << "\n";
    return 2;
  }
  const Args& args = parsed.value();
  const std::string out_path = args.get_or("out", "");
  if (out_path.empty()) {
    err << "--out is required (snapshot file to write)\n";
    return 2;
  }

  core::RuleSnapshot snapshot;
  if (const auto archive_path = args.get("from-itemsets");
      archive_path.has_value()) {
    // Re-generate rules over a saved family (`itemsets --save`, or any
    // snapshot); thresholds come from the flags, as in `mine --load`.
    const auto rule_flags = parse_rule_flags(args);
    if (!rule_flags.ok()) {
      err << rule_flags.error().to_string() << "\n";
      return 2;
    }
    if (!reject_unused(args, err)) return 2;
    auto loaded = core::load_rule_snapshot_file(*archive_path);
    if (!loaded.ok()) {
      err << loaded.error().to_string() << "\n";
      return 2;
    }
    core::RuleSnapshot archive = std::move(loaded).value();
    snapshot = core::build_rule_snapshot(
        std::move(archive.result), std::move(archive.catalog),
        rule_flags.value().rules, rule_flags.value().pruning);
  } else {
    auto flags = parse_trace_flags(args);
    if (!flags.ok()) {
      err << flags.error().to_string() << "\n";
      return 2;
    }
    if (!reject_unused(args, err)) return 2;
    auto loaded = read_trace(std::move(flags).value());
    if (!loaded.ok()) {
      err << loaded.error().to_string() << "\n";
      return 2;
    }
    LoadedTrace trace = std::move(loaded).value();
    const analysis::WorkflowConfig config = trace.config;
    auto mined = analysis::mine(std::move(trace.table), config);
    snapshot = core::build_rule_snapshot(std::move(mined.mined),
                                         std::move(mined.prepared.catalog),
                                         config.rules, config.pruning);
  }

  const auto saved = core::save_rule_snapshot_file(snapshot, out_path);
  if (!saved.ok()) {
    err << saved.error().to_string() << "\n";
    return 1;
  }
  out << "wrote snapshot: " << snapshot.catalog.size() << " items, "
      << snapshot.result.itemsets.size() << " itemsets, "
      << snapshot.rules.size() << " rules to " << out_path << "\n";
  return 0;
}

int run_serve(const std::vector<std::string>& args_raw, std::ostream& out,
              std::ostream& err) {
  auto parsed = Args::parse(args_raw);
  if (!parsed.ok()) {
    err << parsed.error().to_string() << "\n";
    return 2;
  }
  const Args& args = parsed.value();
  const std::string snapshot_path = args.get_or("snapshot", "");
  const std::string host = args.get_or("host", "127.0.0.1");
  const auto port = args.get_uint("port", 8080);
  const auto threads = args.get_uint("threads", 4);
  const bool check_only = args.has("check");
  const std::string stats_json_path = args.get_or("stats-json", "");
  const std::string metrics_out_path = args.get_or("metrics-out", "");
  const auto slow_query_ms = args.get_double("slow-query-ms", 0.0);
  if (!configure_logging(args, err)) return 2;
  FlightDumpSession flight;
  if (!flight.arm(args, err)) return 2;
  TraceSession session(args, err);
  if (!port.ok() || !threads.ok() || !slow_query_ms.ok()) {
    err << (!port.ok()      ? port.error()
            : !threads.ok() ? threads.error()
                            : slow_query_ms.error())
               .to_string()
        << "\n";
    return 2;
  }
  if (slow_query_ms.value() < 0.0) {
    err << "--slow-query-ms must be >= 0\n";
    return 2;
  }
  if (snapshot_path.empty()) {
    err << "--snapshot is required (file from `gpumine snapshot`)\n";
    return 2;
  }
  if (port.value() > 65535) {
    err << "--port must be <= 65535\n";
    return 2;
  }
  if (!reject_unused(args, err)) return 2;

  const auto build_begin = std::chrono::steady_clock::now();
  auto snapshot = core::load_rule_snapshot_file(snapshot_path);
  if (!snapshot.ok()) {
    err << snapshot.error().to_string() << "\n";
    return 1;
  }
  auto engine = std::make_shared<const serve::QueryEngine>(
      std::move(snapshot).value());
  const double build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    build_begin)
          .count();
  out << "loaded " << engine->num_rules() << " rules over "
      << engine->catalog().size() << " items ("
      << engine->num_keywords_with_rules() << " keywords with rules) in "
      << build_seconds << "s\n";

  serve::RequestHandler handler(std::move(engine), snapshot_path);
  if (slow_query_ms.value() > 0.0) {
    // The slow-query log reads the request's spans out of the thread's
    // ring, so the rings must be on for the subtree to exist.
    handler.set_slow_query_ns(
        static_cast<std::uint64_t>(slow_query_ms.value() * 1e6));
    Tracer::instance().set_ring_recording(true);
  }
  serve::ServerConfig config;
  config.host = host;
  config.port = static_cast<std::uint16_t>(port.value());
  config.num_threads = static_cast<std::size_t>(threads.value());
  serve::Server server(handler, config);
  const auto started = server.start();
  if (!started.ok()) {
    err << started.error().to_string() << "\n";
    return 1;
  }
  out << "serving on " << host << ':' << server.port() << " with "
      << config.num_threads << " threads\n";
  if (check_only) {
    // Probe the live socket, so --check verifies the accept and reply
    // path as well as the handler (and a --trace session has request
    // spans to export): /healthz, then scrape /metrics and lint the
    // document the way promtool would.
    out << "probing " << host << ':' << server.port() << "\n";
    const auto probe = [&](const char* target,
                           const char* what) -> std::optional<std::string> {
      const auto response = serve::http_get(host, server.port(), target);
      if (!response.ok()) {
        err << what << " check failed: " << response.error().to_string()
            << "\n";
        return std::nullopt;
      }
      if (response.value().status != 200) {
        err << what << " check failed with status "
            << response.value().status << "\n";
        return std::nullopt;
      }
      return response.value().body;
    };
    const auto health = probe("/healthz", "health");
    const auto metrics = health ? probe("/metrics", "metrics") : std::nullopt;
    if (!metrics) {
      server.stop();
      return 1;
    }
    const auto lint = validate_prometheus_text(*metrics);
    if (!lint.ok()) {
      err << "metrics self-check failed: " << lint.error().to_string()
          << "\n";
      server.stop();
      return 1;
    }
    out << "metrics check ok: " << lint.value() << " series\n";
    server.stop();
    if (!stats_json_path.empty() &&
        !write_text_file(stats_json_path,
                         handler.handle("GET", "/stats").body, err)) {
      return 1;
    }
    if (!metrics_out_path.empty() &&
        !write_metrics_file(metrics_out_path, *metrics, out, err)) {
      return 1;
    }
    return session.finish(out) ? 0 : 1;
  }

  g_serve_stop = 0;
  std::signal(SIGINT, handle_serve_signal);
  std::signal(SIGTERM, handle_serve_signal);
  out.flush();
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  server.stop();
  if (!stats_json_path.empty() &&
      !write_text_file(stats_json_path, handler.handle("GET", "/stats").body,
                       err)) {
    return 1;
  }
  if (!metrics_out_path.empty() &&
      !write_metrics_file(metrics_out_path,
                          handler.handle("GET", "/metrics").body, out, err)) {
    return 1;
  }
  out << "stopped\n";
  return session.finish(out) ? 0 : 1;
}

int run_query(const std::vector<std::string>& args_raw, std::ostream& out,
              std::ostream& err) {
  auto parsed = Args::parse(args_raw);
  if (!parsed.ok()) {
    err << parsed.error().to_string() << "\n";
    return 2;
  }
  const Args& args = parsed.value();
  const std::string host = args.get_or("host", "127.0.0.1");
  const auto port = args.get_uint("port", 8080);
  const std::string keyword = args.get_or("keyword", "");
  const std::string items = args.get_or("items", "");
  const bool stats = args.has("stats");
  const bool reload = args.has("reload");
  const bool health = args.has("health");
  TraceSession session(args, err);
  if (!port.ok()) {
    err << port.error().to_string() << "\n";
    return 2;
  }
  if (!reject_unused(args, err)) return 2;
  const int actions = (keyword.empty() ? 0 : 1) + (items.empty() ? 0 : 1) +
                      (stats ? 1 : 0) + (reload ? 1 : 0) + (health ? 1 : 0);
  if (actions != 1) {
    err << "pick exactly one of --keyword ITEM, --items A,B, --stats, "
           "--reload, --health\n";
    return 2;
  }

  std::string method = "GET";
  std::string target;
  if (!keyword.empty()) {
    target = "/query?keyword=" + percent_encode(keyword);
  } else if (!items.empty()) {
    // Commas separate items server-side; encode each name around them.
    target = "/support?items=";
    bool first = true;
    for (const std::string& name : split_list(items)) {
      if (!first) target += ',';
      first = false;
      target += percent_encode(name);
    }
  } else if (stats) {
    target = "/stats";
  } else if (reload) {
    method = "POST";
    target = "/reload";
  } else {
    target = "/healthz";
  }

  const auto response = [&] {
    GPUMINE_SPAN("client/request");
    return serve::http_request(host, static_cast<std::uint16_t>(port.value()),
                               method, target);
  }();
  if (!response.ok()) {
    err << response.error().to_string() << "\n";
    return 1;
  }
  out << response.value().body;
  if (response.value().body.empty() || response.value().body.back() != '\n') {
    out << "\n";
  }
  if (!session.finish(out)) return 1;
  return response.value().status >= 200 && response.value().status < 300 ? 0
                                                                         : 1;
}

int run_trace_check(const std::vector<std::string>& args_raw,
                    std::ostream& out, std::ostream& err) {
  auto parsed = Args::parse(args_raw);
  if (!parsed.ok()) {
    err << parsed.error().to_string() << "\n";
    return 2;
  }
  const Args& args = parsed.value();
  const std::string file = args.get_or("file", "");
  if (file.empty()) {
    err << "--file is required (a trace written by --trace)\n";
    return 2;
  }
  if (!reject_unused(args, err)) return 2;
  const auto checked = validate_chrome_trace_file(file);
  if (!checked.ok()) {
    err << "invalid trace: " << checked.error().to_string() << "\n";
    return 1;
  }
  out << "ok: " << checked.value() << " well-formed spans in " << file
      << "\n";
  return 0;
}

int run_metrics_check(const std::vector<std::string>& args_raw,
                      std::ostream& out, std::ostream& err) {
  auto parsed = Args::parse(args_raw);
  if (!parsed.ok()) {
    err << parsed.error().to_string() << "\n";
    return 2;
  }
  const Args& args = parsed.value();
  const std::string file = args.get_or("file", "");
  if (file.empty()) {
    err << "--file is required (an exposition file from --metrics-out)\n";
    return 2;
  }
  if (!reject_unused(args, err)) return 2;
  const auto checked = validate_prometheus_file(file);
  if (!checked.ok()) {
    err << "invalid metrics: " << checked.error().to_string() << "\n";
    return 1;
  }
  out << "ok: " << checked.value() << " well-formed series in " << file
      << "\n";
  return 0;
}

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    return run_help(out);
  }
  const std::string command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (command == "synth") return run_synth(rest, out, err);
  if (command == "itemsets") return run_itemsets(rest, out, err);
  if (command == "mine") return run_mine(rest, out, err);
  if (command == "predict") return run_predict(rest, out, err);
  if (command == "report") return run_report(rest, out, err);
  if (command == "digest") return run_digest(rest, out, err);
  if (command == "compare") return run_compare(rest, out, err);
  if (command == "snapshot") return run_snapshot(rest, out, err);
  if (command == "serve") return run_serve(rest, out, err);
  if (command == "query") return run_query(rest, out, err);
  if (command == "trace-check") return run_trace_check(rest, out, err);
  if (command == "metrics-check") return run_metrics_check(rest, out, err);
  err << "unknown command '" << command << "' (try: gpumine help)\n";
  return 2;
}

}  // namespace gpumine::cli
