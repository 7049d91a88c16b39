// The gpumine command line: one row per flag (Flag), one table per
// command (Command), every flag's field (Args), and the driver that
// parses a command's words against its table.
//
// Flags are "--name value" or "--name=value"; a switch takes no value.
// The driver rejects an unknown flag, a missing or extra value, a stray
// word, a repeated flag and an out-of-range value, naming the flag or
// word, before the command runs.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "analysis/classifier.hpp"
#include "analysis/drilldown.hpp"
#include "analysis/summarize.hpp"
#include "analysis/workflow.hpp"
#include "common/result.hpp"
#include "core/negative.hpp"
#include "serve/server.hpp"

namespace gpumine::cli {

struct Args;

/// The field a flag fills, by the flag's kind. A text field with a
/// choice's values is a choice.
using SwitchField = bool& (*)(Args&);
using TextField = std::string& (*)(Args&);
using ListField = std::vector<std::string>& (*)(Args&);  // comma-separated
using CountField = std::size_t& (*)(Args&);
using RealField = double& (*)(Args&);
using Field = std::variant<SwitchField, TextField, ListField, CountField,
                           RealField>;

/// Bounds of a count or real; an open end excludes its own value.
struct Range {
  double min = 0.0;
  double max = 0.0;
  bool min_open = false;
  bool max_open = false;
};

/// Runs the validate() of the params struct a field lives in, so that the
/// library's own range is the flag's.
using Check = void (*)(const Args&);

/// What a value must satisfy beyond its kind: bounds that only the
/// command line knows, a choice's '|'-separated values, or a Check.
using Limit = std::variant<std::monostate, Range, std::string_view, Check>;

/// One flag, declared once. Parsing, bounds and help all read it.
struct Flag {
  std::string_view name;  // without the leading "--"
  std::string_view help;  // one line
  Field field;
  Limit limit = {};
  bool required = false;
};

/// One command's table: the shared groups it uses and its own rows.
struct Command {
  std::string_view name;
  std::string_view summary;
  std::vector<std::span<const Flag>> flags;
  int (*run)(const Args&, std::ostream& out, std::ostream& err);
};

/// Every flag's field, at its default until a table fills it; a command
/// reads the fields its own table declares. Help prints each default
/// from here.
struct Args {
  // The trace/CSV group, --threads, and the rule and pruning flags.
  std::string csv;
  std::vector<std::string> categorical{"job_id"}, drop{"job_id"}, group;
  analysis::WorkflowConfig config;
  std::size_t threads = 1;

  // The observability group.
  std::string trace_file, stats_json, metrics_out, flight_dump, log_level,
      log_file;
  bool stats = false;

  // The commands' own flags.
  std::string keyword, out, synth_trace;
  std::size_t jobs = 20000, seed = 42;
  std::size_t top = 25;
  std::string save, family = "all";
  std::string load, format = "table";
  std::size_t max_rows = 10;
  std::string target;
  double holdout = 0.3;
  analysis::ClassifierParams classifier{.min_confidence = 0.7};
  std::size_t split_seed = 1;
  analysis::TableDrilldownSpec report;
  analysis::DrilldownParams drilldown;
  std::string sort = "idle";
  analysis::SummarizeParams summarize{.max_rules = 6};
  double fdr = 0.01;
  core::NegativeRuleParams negative{.min_confidence = 0.7,
                                    .excluded_antecedent_items = {}};
  std::vector<std::string> exclude;
  std::string a, b, from_itemsets, snapshot;
  serve::ServerConfig server;
  std::size_t port = 8080;
  bool check = false;
  double slow_query_ms = 0.0;
  std::vector<std::string> items;
  bool reload = false, health = false;
  std::string file;

  /// The names of the flags the words gave.
  std::set<std::string_view> given;

  /// Parses the words after the command name against `command`'s table.
  static Result<Args> parse(const Command& command,
                            const std::vector<std::string>& words);
};

/// Prints every row of `command`'s table with its default and bounds.
void print_help(const Command& command, std::ostream& out);

}  // namespace gpumine::cli
