#include "cli/commands.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <thread>

#include "analysis/compare.hpp"
#include "analysis/export.hpp"
#include "analysis/report.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/closed.hpp"
#include "core/significance.hpp"
#include "core/snapshot.hpp"
#include "prep/csv.hpp"
#include "serve/handler.hpp"
#include "serve/query_engine.hpp"
#include "synth/pai.hpp"
#include "synth/philly.hpp"
#include "synth/supercloud.hpp"
#include "trace/rng.hpp"

namespace gpumine::cli {
namespace {

// A row's field, and a Check that runs the validate() of the params
// struct holding it.
#define FIELD(member) +[](Args& args) -> auto& { return args.member; }
#define VALIDATE(params) Check([](const Args& args) { args.params.validate(); })

// The shared groups, each listed by the commands that use it. The
// trace/CSV group says which CSV to read and how to bin, group and mine
// it; none of it applies when --load or --from-itemsets replays saved
// itemsets instead.
const Flag kCsv[] = {
    {"csv", "trace CSV to read", FIELD(csv)},
    {"categorical", "columns always read as categories", FIELD(categorical)},
    {"drop", "columns removed before encoding", FIELD(drop)},
    {"bare", "columns whose items are named by the value alone",
     FIELD(config.encoder.bare_label_columns)},
    {"group", "columns grouped into Freq/Regular/New", FIELD(group)},
    {"min-support", "minimum support, a fraction of the jobs",
     FIELD(config.mining.min_support), VALIDATE(config.mining)},
    {"max-length", "longest itemset mined", FIELD(config.mining.max_length),
     VALIDATE(config.mining)},
};
const Flag kThreads[] = {
    {"threads", "worker threads of every stage", FIELD(threads), Range{1, 256}},
};
const Flag kRule[] = {
    {"min-lift", "lift floor of a generated rule", FIELD(config.rules.min_lift),
     VALIDATE(config.rules)},
};
const Flag kPrune[] = {
    {"c-lift", "pruning slack on lift (Conditions 1-4)",
     FIELD(config.pruning.c_lift), VALIDATE(config.pruning)},
    {"c-supp", "pruning slack on support (Conditions 1-4)",
     FIELD(config.pruning.c_supp), VALIDATE(config.pruning)},
};
const Flag kKeyword[] = {
    {"keyword", "item to analyze, e.g. 'Status = Failed'", FIELD(keyword), {},
     true},
};
const Flag kStats[] = {{"stats", "print the run's stats", FIELD(stats)}};

// The observability group; `query` takes --trace alone.
const Flag kTrace[] = {
    {"trace", "write a Chrome trace-event file of the run", FIELD(trace_file)},
};
const Flag kObserve[] = {
    {"stats-json", "write the metrics document as JSON", FIELD(stats_json)},
    {"metrics-out", "write the metrics as Prometheus text", FIELD(metrics_out)},
    {"flight-dump", "crash dump of recent spans and logs", FIELD(flight_dump)},
    {"log-level", "JSON log threshold (else GPUMINE_LOG_LEVEL, else warn)",
     FIELD(log_level), "debug|info|warn|warning|error|off|none"},
    {"log-file", "append the JSON log to this file", FIELD(log_file)},
};

// Prints `error`, after `what` failed if given, and returns `result`: the
// exit status it ends the run with, or false.
template <typename T>
T fail(std::ostream& err, const Error& error, T result,
       std::string_view what = "") {
  err << what << (what.empty() ? "" : ": ") << error.to_string() << "\n";
  return result;
}

Error unknown_item(const std::string& role, const std::string& name) {
  return Error{"", role + " '" + name + "' is not an encoded item"};
}

// --load and --from-itemsets (`replay_flag`) replay saved itemsets, which
// no flag of the trace/CSV group applies to; false after naming the first
// such flag given.
bool check_replay(const Args& args, const std::string& replay_flag,
                  std::ostream& err) {
  for (const Flag& flag : kCsv) {
    if (args.given.contains(flag.name)) {
      err << "--" << flag.name << ": cannot be combined with " << replay_flag
          << "\n";
      return false;
    }
  }
  return true;
}

// The workflow that the trace/CSV group, --threads and the rule and
// pruning flags describe. --threads drives every stage, the CSV parser
// included.
analysis::WorkflowConfig workflow_config(const Args& args) {
  analysis::WorkflowConfig config = args.config;
  config.drop_columns = args.drop;
  config.mining.num_threads = config.rules.num_threads = args.threads;
  config.prep_threads = args.threads;
  for (const std::string& column : args.group) {
    prep::ShareGroupingParams grouping;
    grouping.top_label = "Freq " + column;
    grouping.middle_label = "Regular " + column;
    grouping.bottom_label = "New " + column;
    config.groupings.push_back({column, grouping});
  }
  return config;
}

struct LoadedTrace {
  prep::Table table;
  analysis::WorkflowConfig config;
  double csv_seconds = 0.0;  // CSV parse wall time, for --stats
};

// Reads --csv and bins its numeric columns.
Result<LoadedTrace> read_trace(const Args& args) {
  if (args.csv.empty()) return Error{"--csv", "required"};
  prep::CsvParams csv;
  csv.force_categorical = args.categorical;
  csv.num_threads = args.threads;
  const auto csv_begin = std::chrono::steady_clock::now();
  auto parsed = prep::read_csv_file(args.csv, csv);
  if (!parsed.ok()) return parsed.error();

  LoadedTrace loaded{std::move(parsed).value(), workflow_config(args), 0.0};
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

// The observability group's wiring for one command. start() sets up the
// JSON log, arms the crash dump and arms the tracer. A clean exit still
// writes the dump, so the file is always a loadable trace bundle, and
// disarms, so in-process callers (tests) keep no signal handlers.
// finish() exports the --trace file, self-checks it and reports its span
// count. Both return false after printing why a step failed.
class Observability {
 public:
  Observability(const Args& args, std::ostream& err) : args_(args), err_(err) {}
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;
  ~Observability() {
    if (!dump_armed_) return;
    (void)write_flight_dump(args_.flight_dump);
    disarm_crash_dump();
  }

  bool start() {
    if (!args_.log_level.empty()) {
      Logger::instance().set_level(parse_log_level(args_.log_level).value());
    }
    if (!args_.log_file.empty()) {
      const auto opened = Logger::instance().open_file(args_.log_file);
      if (!opened.ok()) return fail(err_, opened.error(), false);
    }
    if (!args_.flight_dump.empty()) {
      const auto armed = arm_crash_dump(args_.flight_dump);
      if (!armed.ok()) return fail(err_, armed.error(), false);
      dump_armed_ = true;
    }
    if (tracing()) {
      Tracer::instance().reset();
      Tracer::instance().enable();
    }
    return true;
  }

  [[nodiscard]] bool tracing() const { return !args_.trace_file.empty(); }

  bool finish(std::ostream& out) {
    if (!tracing()) return true;
    Tracer& tracer = Tracer::instance();
    tracer.disable();
    const auto written = tracer.export_chrome_trace_file(args_.trace_file);
    if (!written.ok()) return fail(err_, written.error(), false);
    const auto checked = validate_chrome_trace_file(args_.trace_file);
    if (!checked.ok()) {
      return fail(err_, checked.error(), false, "trace self-check failed");
    }
    out << "wrote trace: " << checked.value() << " spans to "
        << args_.trace_file << "\n";
    return true;
  }

 private:
  const Args& args_;
  std::ostream& err_;
  bool dump_armed_ = false;
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
  return file ? true : fail(err, Error{path, "cannot write file"}, false);
}

// Writes a Prometheus exposition document for `--metrics-out`, running
// the in-repo lint on it first so a malformed export fails loudly at
// the producer instead of at the scraper.
bool write_metrics_file(const std::string& path, const std::string& text,
                        std::ostream& out, std::ostream& err) {
  const auto checked = validate_prometheus_text(text);
  if (!checked.ok()) {
    return fail(err, checked.error(), false, "metrics self-check failed");
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

const Flag kSynth[] = {
    {"trace", "cluster to imitate", FIELD(synth_trace), "pai|supercloud|philly",
     true},
    {"jobs", "jobs to generate", FIELD(jobs), Range{1, 10'000'000}},
    {"seed", "generator seed", FIELD(seed)},
    {"out", "CSV file to write", FIELD(out), {}, true},
};

int run_synth(const Args& args, std::ostream& out, std::ostream& err) {
  const auto generate = [&](auto config, auto generator) {
    config.num_jobs = args.jobs;
    config.seed = args.seed;
    return generator(config).merged();
  };
  const prep::Table table =
      args.synth_trace == "pai"
          ? generate(synth::PaiConfig{}, synth::generate_pai)
      : args.synth_trace == "supercloud"
          ? generate(synth::SuperCloudConfig{}, synth::generate_supercloud)
          : generate(synth::PhillyConfig{}, synth::generate_philly);
  const auto written = prep::write_csv_file(table, args.out);
  if (!written.ok()) return fail(err, written.error(), 1);
  out << "wrote " << table.num_rows() << " jobs x " << table.num_columns()
      << " features to " << args.out << "\n";
  return 0;
}

const Flag kItemsets[] = {
    {"top", "itemsets to list, most frequent first", FIELD(top)},
    {"family", "itemsets to keep", FIELD(family), "all|closed|maximal"},
    {"save", "also save the itemsets as a snapshot without rules", FIELD(save)},
};

int run_itemsets(const Args& args, std::ostream& out, std::ostream& err) {
  if (!args.save.empty() && args.family != "all") {
    // Replaying regenerates rules, which needs every subset's support.
    err << "--save needs --family all (a " << args.family
        << " family cannot be replayed)\n";
    return 2;
  }
  auto loaded = read_trace(args);
  if (!loaded.ok()) return fail(err, loaded.error(), 2);

  LoadedTrace trace = std::move(loaded).value();
  auto mined = analysis::mine(std::move(trace.table), trace.config);
  mined.mined.metrics.prep_stage.csv_seconds = trace.csv_seconds;
  if (args.stats) out << render_stats(mined.mined.metrics);
  if (args.family == "closed") {
    mined.mined.itemsets = core::closed_itemsets(mined.mined);
  } else if (args.family == "maximal") {
    mined.mined.itemsets = core::maximal_itemsets(mined.mined);
  }
  if (!args.save.empty()) {
    // A snapshot with no rules: the replaying commands regenerate them
    // from their own flags.
    core::RuleSnapshot archive;
    archive.result = mined.mined;
    archive.catalog = mined.prepared.catalog;
    const auto saved = core::save_rule_snapshot_file(archive, args.save);
    if (!saved.ok()) return fail(err, saved.error(), 1);
    out << "saved itemsets to " << args.save << "\n";
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
  const std::size_t n = std::min<std::size_t>(itemsets.size(), args.top);
  for (std::size_t i = 0; i < n; ++i) {
    out << "  [" << itemsets[i].count << "] "
        << mined.prepared.catalog.render(itemsets[i].items) << "\n";
  }
  return 0;
}

const Flag kMine[] = {
    {"load", "saved itemsets to replay instead of --csv", FIELD(load)},
    {"format", "output format", FIELD(format), "table|csv|json|md"},
    {"max-rows", "rules per table, for --format table or md", FIELD(max_rows)},
};

int run_mine(const Args& args, std::ostream& out, std::ostream& err) {
  if (!args.load.empty() && !check_replay(args, "--load", err)) return 2;
  if (args.given.contains("max-rows") &&
      (args.format == "csv" || args.format == "json")) {
    err << "--max-rows applies to --format table|md only; " << args.format
        << " lists every rule\n";
    return 2;
  }
  Observability observability(args, err);
  if (!observability.start()) return 2;

  // Mining input: either a raw CSV (mined now) or a saved snapshot
  // (from `itemsets --save` or `snapshot`).
  core::MiningResult result;
  core::ItemCatalog catalog;
  analysis::WorkflowConfig config = workflow_config(args);
  if (!args.load.empty()) {
    auto loaded = core::load_rule_snapshot_file(args.load);
    if (!loaded.ok()) return fail(err, loaded.error(), 2);
    // Rules are regenerated from the flag thresholds, not the file's.
    core::RuleSnapshot archive = std::move(loaded).value();
    result = std::move(archive.result);
    catalog = std::move(archive.catalog);
    if (args.stats) {
      out << "no mining stats: --load replays saved itemsets without "
             "mining\n";
    }
  } else {
    auto loaded = read_trace(args);
    if (!loaded.ok()) return fail(err, loaded.error(), 2);
    LoadedTrace trace = std::move(loaded).value();
    config = trace.config;
    auto mined = analysis::mine(std::move(trace.table), config);
    result = std::move(mined.mined);
    result.metrics.prep_stage.csv_seconds = trace.csv_seconds;
    catalog = std::move(mined.prepared.catalog);
    if (args.stats) out << render_stats(result.metrics);
  }

  const auto keyword_id = catalog.find(args.keyword);
  if (!keyword_id) return fail(err, unknown_item("keyword", args.keyword), 1);
  const auto analysis = core::analyze_keyword(result, *keyword_id,
                                              config.rules, config.pruning);
  if (args.stats) out << render_stats(analysis.stage);
  if (args.stats && observability.tracing()) {
    out << "trace spans (per name, sorted):\n"
        << Tracer::instance().summary_table();
  }
  result.metrics.rule_stage = analysis.stage;
  if (!args.stats_json.empty() &&
      !write_text_file(args.stats_json,
                       with_trace_spans(render_json(result.metrics)), err)) {
    return 1;
  }
  if (!args.metrics_out.empty() &&
      !write_metrics_file(args.metrics_out, render_exposition(result.metrics),
                          out, err)) {
    return 1;
  }
  if (args.format == "table") {
    analysis::RuleTableOptions options;
    options.max_cause = args.max_rows;
    options.max_characteristic = args.max_rows;
    out << analysis::render_rule_table(analysis, catalog, options);
  } else if (args.format == "csv") {
    out << analysis::rules_to_csv(analysis, catalog);
  } else if (args.format == "json") {
    out << analysis::rules_to_json(analysis, catalog) << "\n";
  } else {
    out << analysis::rules_to_markdown(analysis, catalog, args.max_rows);
  }
  return observability.finish(out) ? 0 : 1;
}

const Flag kPredict[] = {
    {"target", "item to predict", FIELD(target), {}, true},
    {"holdout", "fraction of the jobs held out for testing", FIELD(holdout),
     Range{0, 1, true, true}},
    {"min-confidence", "confidence floor of a classifier rule",
     FIELD(classifier.min_confidence), VALIDATE(classifier)},
    {"seed", "seed of the holdout split", FIELD(split_seed)},
};

int run_predict(const Args& args, std::ostream& out, std::ostream& err) {
  auto loaded = read_trace(args);
  if (!loaded.ok()) return fail(err, loaded.error(), 2);

  LoadedTrace trace = std::move(loaded).value();
  const auto& config = trace.config;

  // Deterministic random holdout split.
  trace::Rng rng(args.split_seed);
  const std::size_t rows = trace.table.num_rows();
  std::vector<bool> is_train(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    is_train[r] = !rng.bernoulli(args.holdout);
  }
  std::vector<bool> is_test = is_train;
  is_test.flip();

  auto train = analysis::mine(trace.table.filter_rows(is_train), config);
  const auto target_id = train.prepared.catalog.find(args.target);
  if (!target_id) return fail(err, unknown_item("target", args.target), 1);
  const auto rules = core::generate_rules(train.mined, config.rules);
  const auto cause =
      core::filter_keyword(rules, *target_id, core::KeywordSide::kConsequent);
  const analysis::RuleClassifier classifier(cause, *target_id,
                                            args.classifier);

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

const Flag kReport[] = {
    {"csv", "trace CSV to read", FIELD(csv), {}, true},
    {"principal", "user or group column", FIELD(report.principal_column)},
    {"runtime", "runtime column, in seconds", FIELD(report.runtime_column)},
    {"gpus", "column of GPUs per job", FIELD(report.gpus_column)},
    {"sm-util", "mean SM utilization column, %", FIELD(report.sm_util_column)},
    {"status", "column of job statuses", FIELD(report.status_column)},
    {"failed-label", "status of a failed job", FIELD(report.failed_label)},
    {"killed-label", "status of a killed job", FIELD(report.killed_label)},
    {"sort", "rank by idle or failed GPU hours, GPU hours or failure rate",
     FIELD(sort), "idle|failed|hours|rate"},
    {"top", "principals to list", FIELD(drilldown.top_k), VALIDATE(drilldown)},
};

int run_report(const Args& args, std::ostream& out, std::ostream& err) {
  using analysis::DrilldownSort;
  analysis::DrilldownParams params = args.drilldown;
  params.sort = args.sort == "failed"  ? DrilldownSort::kFailedGpuHours
                : args.sort == "hours" ? DrilldownSort::kGpuHours
                : args.sort == "rate"  ? DrilldownSort::kFailureRate
                                       : DrilldownSort::kIdleGpuHours;
  prep::CsvParams csv;
  csv.force_categorical = {"job_id", args.report.principal_column};
  auto table = prep::read_csv_file(args.csv, csv);
  if (!table.ok()) return fail(err, table.error(), 2);
  auto stats =
      analysis::drilldown_from_table(table.value(), args.report, params);
  if (!stats.ok()) return fail(err, stats.error(), 2);
  out << analysis::render_drilldown(stats.value());
  return 0;
}

const Flag kDigest[] = {
    {"max-rules", "rules in the digest", FIELD(summarize.max_rules),
     VALIDATE(summarize)},
    {"fdr", "false discovery rate of the Fisher/BH certification", FIELD(fdr),
     Range{0, 1, true}},
    {"negative-confidence", "confidence floor of a safe pattern, X => NOT Y",
     FIELD(negative.min_confidence), VALIDATE(negative)},
    {"exclude", "items kept out of safe-pattern antecedents", FIELD(exclude)},
};

int run_digest(const Args& args, std::ostream& out, std::ostream& err) {
  auto loaded = read_trace(args);
  if (!loaded.ok()) return fail(err, loaded.error(), 2);

  LoadedTrace trace = std::move(loaded).value();
  const auto config = trace.config;
  auto mined = analysis::mine(std::move(trace.table), config);
  const auto& catalog = mined.prepared.catalog;
  const auto keyword_id = catalog.find(args.keyword);
  if (!keyword_id) return fail(err, unknown_item("keyword", args.keyword), 1);
  const auto analysis = core::analyze_keyword(mined.mined, *keyword_id,
                                              config.rules, config.pruning);

  const auto digest = analysis::summarize_cause_rules(
      analysis.cause, mined.prepared.db, *keyword_id, args.summarize);
  out << "digest (greedy coverage of '" << args.keyword
      << "' transactions):\n";
  std::vector<core::Rule> digest_rules;
  for (const auto& entry : digest) {
    out << "  " << analysis::render_rule(entry.rule, catalog)
        << "  conf=" << entry.rule.confidence << " covers " << entry.matched
        << " (+" << entry.newly_covered << " new, cum "
        << static_cast<int>(entry.cumulative_coverage * 100.0) << "%)\n";
    digest_rules.push_back(entry.rule);
  }

  const auto certified =
      core::significant_rules(digest_rules, mined.mined.db_size, args.fdr);
  out << "certified " << certified.size() << " of " << digest_rules.size()
      << " digest rules (Fisher exact, BH q=" << args.fdr << ")\n";

  core::NegativeRuleParams negative = args.negative;
  negative.mining_min_support = config.mining.min_support;
  // Tautology guard: e.g. --exclude Terminated when the keyword is
  // Failed, so "{Terminated} => NOT Failed" does not top the list.
  for (const std::string& name : args.exclude) {
    if (const auto id = catalog.find(name)) {
      negative.excluded_antecedent_items.push_back(*id);
    }
  }
  const auto safe =
      core::generate_negative_rules(mined.mined, *keyword_id, negative);
  out << "safe patterns (X => NOT " << args.keyword << "): " << safe.size()
      << "\n";
  for (std::size_t i = 0; i < safe.size() && i < 5; ++i) {
    out << "  {" << catalog.render(safe[i].antecedent)
        << "}  conf=" << safe[i].confidence << " lift=" << safe[i].lift
        << "\n";
  }
  return 0;
}

const Flag kCompare[] = {
    {"a", "first snapshot (itemsets --save or snapshot)", FIELD(a), {}, true},
    {"b", "second snapshot", FIELD(b), {}, true},
};

int run_compare(const Args& args, std::ostream& out, std::ostream& err) {
  auto loaded_a = core::load_rule_snapshot_file(args.a);
  auto loaded_b = core::load_rule_snapshot_file(args.b);
  if (!loaded_a.ok() || !loaded_b.ok()) {
    return fail(err, (!loaded_a.ok() ? loaded_a : loaded_b).error(), 2);
  }
  const core::RuleSnapshot a = std::move(loaded_a).value();
  const core::RuleSnapshot b = std::move(loaded_b).value();

  auto keyword_rules = [&](const core::RuleSnapshot& archive)
      -> std::vector<core::Rule> {
    const auto id = archive.catalog.find(args.keyword);
    if (!id) return {};
    return core::filter_keyword(
        core::generate_rules(archive.result, args.config.rules), *id);
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

const Flag kSnapshot[] = {
    {"out", "snapshot file to write", FIELD(out), {}, true},
    {"from-itemsets", "saved itemsets to rebuild from", FIELD(from_itemsets)},
};

int run_snapshot(const Args& args, std::ostream& out, std::ostream& err) {
  core::RuleSnapshot snapshot;
  if (!args.from_itemsets.empty()) {
    if (!check_replay(args, "--from-itemsets", err)) return 2;
    // Re-generate rules over a saved family (`itemsets --save`, or any
    // snapshot); thresholds come from the flags, as in `mine --load`.
    auto loaded = core::load_rule_snapshot_file(args.from_itemsets);
    if (!loaded.ok()) return fail(err, loaded.error(), 2);
    core::RuleSnapshot archive = std::move(loaded).value();
    const analysis::WorkflowConfig config = workflow_config(args);
    snapshot = core::build_rule_snapshot(std::move(archive.result),
                                         std::move(archive.catalog),
                                         config.rules, config.pruning);
  } else {
    auto loaded = read_trace(args);
    if (!loaded.ok()) return fail(err, loaded.error(), 2);
    LoadedTrace trace = std::move(loaded).value();
    const analysis::WorkflowConfig config = trace.config;
    auto mined = analysis::mine(std::move(trace.table), config);
    snapshot = core::build_rule_snapshot(std::move(mined.mined),
                                         std::move(mined.prepared.catalog),
                                         config.rules, config.pruning);
  }

  const auto saved = core::save_rule_snapshot_file(snapshot, args.out);
  if (!saved.ok()) return fail(err, saved.error(), 1);
  out << "wrote snapshot: " << snapshot.catalog.size() << " items, "
      << snapshot.result.itemsets.size() << " itemsets, "
      << snapshot.rules.size() << " rules to " << args.out << "\n";
  return 0;
}

const Flag kServe[] = {
    {"snapshot", "snapshot file to serve", FIELD(snapshot), {}, true},
    {"host", "numeric IPv4 address to listen on", FIELD(server.host)},
    {"port", "listen port; 0 picks a free one", FIELD(port), Range{0, 65535}},
    {"threads", "worker threads", FIELD(server.num_threads), Range{1, 256}},
    {"check", "probe /healthz and /metrics, then exit", FIELD(check)},
    {"slow-query-ms", "log the spans of a slower request; 0 is off",
     FIELD(slow_query_ms), Range{0, 3'600'000}},
};

int run_serve(const Args& args, std::ostream& out, std::ostream& err) {
  Observability observability(args, err);
  if (!observability.start()) return 2;

  const auto build_begin = std::chrono::steady_clock::now();
  auto snapshot = core::load_rule_snapshot_file(args.snapshot);
  if (!snapshot.ok()) return fail(err, snapshot.error(), 1);
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

  serve::RequestHandler handler(std::move(engine), args.snapshot);
  if (args.slow_query_ms > 0.0) {
    // The slow-query log reads the request's spans out of the thread's
    // ring, so the rings must be on for the subtree to exist.
    handler.set_slow_query_ns(
        static_cast<std::uint64_t>(args.slow_query_ms * 1e6));
    Tracer::instance().set_ring_recording(true);
  }
  serve::ServerConfig config = args.server;
  config.port = static_cast<std::uint16_t>(args.port);
  serve::Server server(handler, config);
  const auto started = server.start();
  if (!started.ok()) return fail(err, started.error(), 1);
  const std::string& host = config.host;
  out << "serving on " << host << ':' << server.port() << " with "
      << config.num_threads << " threads\n";
  std::optional<std::string> scraped;  // --check's /metrics document
  if (args.check) {
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
    scraped = health ? probe("/metrics", "metrics") : std::nullopt;
    if (!scraped) return 1;
    const auto lint = validate_prometheus_text(*scraped);
    if (!lint.ok()) {
      return fail(err, lint.error(), 1, "metrics self-check failed");
    }
    out << "metrics check ok: " << lint.value() << " series\n";
  } else {
    g_serve_stop = 0;
    std::signal(SIGINT, handle_serve_signal);
    std::signal(SIGTERM, handle_serve_signal);
    out.flush();
    while (g_serve_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
  }
  server.stop();
  if (!args.stats_json.empty() &&
      !write_text_file(args.stats_json, handler.handle("GET", "/stats").body,
                       err)) {
    return 1;
  }
  if (!args.metrics_out.empty() &&
      !write_metrics_file(args.metrics_out,
                          scraped ? *scraped
                                  : handler.handle("GET", "/metrics").body,
                          out, err)) {
    return 1;
  }
  if (!args.check) out << "stopped\n";
  return observability.finish(out) ? 0 : 1;
}

const Flag kQuery[] = {
    {"host", "numeric IPv4 address of the server", FIELD(server.host)},
    {"port", "port of the server", FIELD(port), Range{1, 65535}},
    {"keyword", "print this item's pruned rules", FIELD(keyword)},
    {"items", "print the joint support of these items", FIELD(items)},
    {"stats", "print the server's stats", FIELD(stats)},
    {"reload", "reload the server's snapshot", FIELD(reload)},
    {"health", "check the server's health", FIELD(health)},
};

int run_query(const Args& args, std::ostream& out, std::ostream& err) {
  Observability observability(args, err);
  if (!observability.start()) return 2;
  const int actions = (args.keyword.empty() ? 0 : 1) +
                      (args.items.empty() ? 0 : 1) + (args.stats ? 1 : 0) +
                      (args.reload ? 1 : 0) + (args.health ? 1 : 0);
  if (actions != 1) {
    err << "pick exactly one of --keyword ITEM, --items A,B, --stats, "
           "--reload, --health\n";
    return 2;
  }

  std::string method = "GET";
  std::string target;
  if (!args.keyword.empty()) {
    target = "/query?keyword=" + percent_encode(args.keyword);
  } else if (!args.items.empty()) {
    // Commas separate items server-side; encode each name around them.
    target = "/support?items=";
    bool first = true;
    for (const std::string& name : args.items) {
      if (!first) target += ',';
      first = false;
      target += percent_encode(name);
    }
  } else if (args.stats) {
    target = "/stats";
  } else if (args.reload) {
    method = "POST";
    target = "/reload";
  } else {
    target = "/healthz";
  }

  const auto response = [&] {
    GPUMINE_SPAN("client/request");
    return serve::http_request(args.server.host,
                               static_cast<std::uint16_t>(args.port), method,
                               target);
  }();
  if (!response.ok()) return fail(err, response.error(), 1);
  out << response.value().body;
  if (response.value().body.empty() || response.value().body.back() != '\n') {
    out << "\n";
  }
  if (!observability.finish(out)) return 1;
  return response.value().status >= 200 && response.value().status < 300 ? 0
                                                                         : 1;
}

const Flag kTraceCheck[] = {
    {"file", "trace file or crash dump to validate", FIELD(file), {}, true},
};

int run_trace_check(const Args& args, std::ostream& out, std::ostream& err) {
  const auto checked = validate_chrome_trace_file(args.file);
  if (!checked.ok()) return fail(err, checked.error(), 1, "invalid trace");
  out << "ok: " << checked.value() << " well-formed spans in " << args.file
      << "\n";
  return 0;
}

const Flag kMetricsCheck[] = {
    {"file", "Prometheus exposition file to lint", FIELD(file), {}, true},
};

int run_metrics_check(const Args& args, std::ostream& out,
                      std::ostream& err) {
  const auto checked = validate_prometheus_file(args.file);
  if (!checked.ok()) return fail(err, checked.error(), 1, "invalid metrics");
  out << "ok: " << checked.value() << " well-formed series in " << args.file
      << "\n";
  return 0;
}

#undef FIELD
#undef VALIDATE

const Command kCommands[] = {
    {"synth", "write a seeded synthetic PAI, SuperCloud or Philly trace CSV",
     {kSynth}, run_synth},
    {"itemsets", "mine a trace CSV and list its most frequent itemsets",
     {kCsv, kThreads, kItemsets, kStats}, run_itemsets},
    {"mine", "print a keyword's pruned cause and characteristic rules",
     {kKeyword, kCsv, kMine, kRule, kPrune, kThreads, kStats, kTrace, kObserve},
     run_mine},
    {"predict", "train a rule classifier for an item, test it on held-out jobs",
     {kPredict, kCsv, kRule, kThreads}, run_predict},
    {"report", "rank users or groups by wasted GPU hours or failures",
     {kReport}, run_report},
    {"digest", "summarize and certify a keyword's rules, list safe patterns",
     {kKeyword, kCsv, kDigest, kRule, kPrune, kThreads}, run_digest},
    {"compare", "compare a keyword's rules in two snapshots",
     {kCompare, kKeyword, kRule}, run_compare},
    {"snapshot", "write the rule snapshot that serve answers from",
     {kSnapshot, kCsv, kRule, kPrune, kThreads}, run_snapshot},
    {"serve", "answer rule queries from a snapshot over HTTP and lines",
     {kServe, kTrace, kObserve}, run_serve},
    {"query", "send one request to a running gpumine serve", {kQuery, kTrace},
     run_query},
    {"trace-check", "validate a trace file or a crash dump", {kTraceCheck},
     run_trace_check},
    {"metrics-check", "lint a Prometheus exposition file", {kMetricsCheck},
     run_metrics_check},
};

}  // namespace

std::span<const Command> command_table() { return kCommands; }

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  const bool help = args.empty() || args[0] == "help" || args[0] == "--help";
  if (help && args.size() < 2) {
    out << "gpumine - interpretable GPU-cluster trace analysis via "
           "association rule mining (gpumine help COMMAND: one table)\n";
    for (const Command& command : kCommands) {
      out << "\n";
      print_help(command, out);
    }
    return 0;
  }
  const std::string& name = args[help ? 1 : 0];
  const auto command = std::ranges::find(kCommands, name, &Command::name);
  if (command == std::end(kCommands)) {
    err << "unknown command '" << name << "' (try: gpumine help)\n";
    return 2;
  }
  const std::vector<std::string> words(args.begin() + 1, args.end());
  if (help || std::ranges::find(words, "--help") != words.end()) {
    print_help(*command, out);
    return 0;
  }
  const auto parsed = Args::parse(*command, words);
  if (!parsed.ok()) return fail(err, parsed.error(), 2);
  return command->run(parsed.value(), out, err);
}

}  // namespace gpumine::cli
