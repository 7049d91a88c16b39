#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <variant>

#include "common/log.hpp"
#include "common/trace.hpp"
#include "core/snapshot.hpp"
#include "serve/handler.hpp"
#include "serve/query_engine.hpp"
#include "serve/server.hpp"

namespace gpumine::cli {
namespace {

struct RunResult {
  int code;
  std::string out;
  std::string err;
};

RunResult run_cli(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Cli, HelpOnNoArgsAndHelpCommand) {
  for (const auto& args :
       {std::vector<std::string>{}, std::vector<std::string>{"help"}}) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.code, 0);
    EXPECT_NE(result.out.find("usage:"), std::string::npos);
  }
}

// `help COMMAND` and `COMMAND --help` print the same table: every row,
// with its default and its declared bounds.
TEST(Cli, HelpListsEveryRowOfEveryTable) {
  const Args defaults;
  for (const Command& command : command_table()) {
    const std::string name(command.name);
    const auto help = run_cli({"help", name});
    ASSERT_EQ(help.code, 0) << name;
    const auto flag_help = run_cli({name, "--help", "--no-such-flag"});
    ASSERT_EQ(flag_help.code, 0) << name;
    EXPECT_EQ(flag_help.out, help.out) << name;
    for (const auto& group : command.flags) {
      for (const Flag& flag : group) {
        const std::string key = "\n  --" + std::string(flag.name);
        const auto at = help.out.find(key);
        ASSERT_NE(at, std::string::npos) << name << " " << key;
        const std::string line =
            help.out.substr(at + 1, help.out.find('\n', at + 1) - at - 1);
        Args fields = defaults;
        if (flag.required) {
          EXPECT_NE(line.find("(required"), std::string::npos) << line;
        } else if (const auto* count =
                       std::get_if<CountField>(&flag.field)) {
          EXPECT_NE(line.find("default " + std::to_string((*count)(fields))),
                    std::string::npos)
              << line;
        } else if (std::holds_alternative<RealField>(flag.field)) {
          EXPECT_NE(line.find("default "), std::string::npos) << line;
        } else if (const auto* text =
                       std::get_if<TextField>(&flag.field);
                   text != nullptr && !(*text)(fields).empty()) {
          EXPECT_NE(line.find("default " + (*text)(fields)), std::string::npos)
              << line;
        }
        if (std::holds_alternative<Range>(flag.limit)) {
          EXPECT_NE(line.find("range "), std::string::npos) << line;
        }
      }
    }
  }
  EXPECT_EQ(run_cli({"mine", "--help"}).out.find("is required"),
            std::string::npos);
}

// A valued flag given no value is rejected, not silently dropped.
TEST(Cli, ValuedFlagWithoutValueIsRejected) {
  const auto trace = run_cli({"mine", "--csv", "/does/not/exist.csv",
                              "--keyword", "Failed", "--trace"});
  EXPECT_EQ(trace.code, 2);
  EXPECT_EQ(trace.err.rfind("--trace: ", 0), 0u) << trace.err;
  const auto stats_json = run_cli(
      {"serve", "--snapshot", "/no/such.snap", "--check", "--stats-json"});
  EXPECT_EQ(stats_json.code, 2);
  EXPECT_EQ(stats_json.err.rfind("--stats-json: ", 0), 0u) << stats_json.err;
}

// A switch given a value is rejected, not left on.
TEST(Cli, SwitchWithValueIsRejected) {
  const auto check =
      run_cli({"serve", "--snapshot", "/no/such.snap", "--check=no"});
  EXPECT_EQ(check.code, 2);
  EXPECT_EQ(check.err.rfind("--check: ", 0), 0u) << check.err;
  const auto stats = run_cli({"mine", "--csv", "/does/not/exist.csv",
                              "--keyword", "Failed", "--stats", "json"});
  EXPECT_EQ(stats.code, 2);
  EXPECT_EQ(stats.err.rfind("unexpected argument 'json'", 0), 0u)
      << stats.err;
}

// An unquoted item name leaves stray words, which are rejected by name.
TEST(Cli, StrayWordIsRejected) {
  const auto result = run_cli({"mine", "--csv", "/does/not/exist.csv",
                               "--keyword", "Status", "=", "Failed"});
  EXPECT_EQ(result.code, 2);
  EXPECT_EQ(result.err.rfind("unexpected argument '='", 0), 0u) << result.err;
}

// A repeated flag is rejected, not decided by its last value.
TEST(Cli, RepeatedFlagIsRejected) {
  const auto result =
      run_cli({"mine", "--csv", "/does/not/exist.csv", "--keyword", "Failed",
               "--min-lift", "9", "--min-lift", "1.5"});
  EXPECT_EQ(result.code, 2);
  EXPECT_EQ(result.err.rfind("--min-lift: ", 0), 0u) << result.err;
}

// NaN and infinity are rejected for a real flag, whatever its bounds.
TEST(Cli, NonFiniteRealIsRejected) {
  const auto holdout = run_cli({"predict", "--csv", "/does/not/exist.csv",
                                "--target", "Failed", "--holdout", "nan"});
  EXPECT_EQ(holdout.code, 2);
  EXPECT_EQ(holdout.err.rfind("--holdout: ", 0), 0u) << holdout.err;
  const auto slow = run_cli(
      {"serve", "--snapshot", "/no/such.snap", "--slow-query-ms", "inf"});
  EXPECT_EQ(slow.code, 2);
  EXPECT_EQ(slow.err.rfind("--slow-query-ms: ", 0), 0u) << slow.err;
}

// `itemsets` generates no rules and `predict` does not prune, so the
// rule and pruning flags they used to accept and ignore are unknown.
TEST(Cli, FlagsThatDidNothingAreUnknown) {
  const std::vector<std::pair<std::string, std::string>> dropped{
      {"itemsets", "min-lift"}, {"itemsets", "c-lift"}, {"itemsets", "c-supp"},
      {"predict", "c-lift"}, {"predict", "c-supp"}};
  for (const auto& [command, flag] : dropped) {
    const auto result = run_cli({command, "--" + flag, "2", "--csv",
                                 "/does/not/exist.csv", "--target", "Failed"});
    EXPECT_EQ(result.code, 2) << command << " --" << flag;
    EXPECT_EQ(result.err, "unknown flag --" + flag + "\n");
  }
}

// --load and --from-itemsets replay saved itemsets, so the trace/CSV
// flags do not apply to them and are rejected before anything is read.
TEST(Cli, CsvOnlyFlagsAreRejectedWithReplay) {
  const std::vector<std::vector<std::string>> replays{
      {"mine", "--load", "/no/such.snap", "--keyword", "Failed"},
      {"snapshot", "--from-itemsets", "/no/such.snap", "--out",
       temp_path("cli_replay.snap")}};
  for (const auto& replay : replays) {
    for (const std::string flag : {"csv", "min-support", "max-length", "bare",
                                   "group", "drop", "categorical"}) {
      auto args = replay;
      args.insert(args.end(), {"--" + flag, "1"});
      const auto result = run_cli(args);
      EXPECT_EQ(result.code, 2) << replay[0] << " --" << flag;
      EXPECT_EQ(result.err.rfind("--" + flag + ": ", 0), 0u) << result.err;
    }
  }
}

TEST(Cli, UnknownCommand) {
  const auto result = run_cli({"frobnicate"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(Cli, SynthRequiresOut) {
  const auto result = run_cli({"synth", "--trace", "philly"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--out"), std::string::npos);
}

TEST(Cli, SynthRejectsUnknownTraceAndFlags) {
  EXPECT_EQ(run_cli({"synth", "--trace", "borg", "--out", "x.csv"}).code, 2);
  const auto typo = run_cli({"synth", "--trace", "philly", "--out",
                             temp_path("t.csv"), "--jbos", "10"});
  EXPECT_EQ(typo.code, 2);
  EXPECT_NE(typo.err.find("--jbos"), std::string::npos);
}

TEST(Cli, SynthThenItemsetsThenMine) {
  const std::string csv = temp_path("cli_trace.csv");
  const auto synth = run_cli(
      {"synth", "--trace", "philly", "--jobs", "4000", "--out", csv});
  ASSERT_EQ(synth.code, 0) << synth.err;
  EXPECT_NE(synth.out.find("4000 jobs"), std::string::npos);

  const auto itemsets =
      run_cli({"itemsets", "--csv", csv, "--min-support", "0.1", "--top",
               "5", "--bare", "Status", "--group", "User"});
  ASSERT_EQ(itemsets.code, 0) << itemsets.err;
  EXPECT_NE(itemsets.out.find("frequent itemsets"), std::string::npos);

  const auto mine = run_cli({"mine", "--csv", csv, "--keyword", "Failed",
                             "--bare", "Status", "--group", "User",
                             "--max-rows", "3"});
  ASSERT_EQ(mine.code, 0) << mine.err;
  EXPECT_NE(mine.out.find("keyword: Failed"), std::string::npos);
  EXPECT_NE(mine.out.find("cause analysis"), std::string::npos);
}

TEST(Cli, MineRequiresKeyword) {
  const std::string csv = temp_path("cli_trace2.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "supercloud", "--jobs", "2000",
                     "--out", csv})
                .code,
            0);
  const auto result = run_cli({"mine", "--csv", csv});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--keyword"), std::string::npos);
}

TEST(Cli, MineUnknownKeywordFailsCleanly) {
  const std::string csv = temp_path("cli_trace3.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "supercloud", "--jobs", "2000",
                     "--out", csv})
                .code,
            0);
  const auto result =
      run_cli({"mine", "--csv", csv, "--keyword", "No Such Item", "--bare",
               "Status"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("No Such Item"), std::string::npos);
}

// Out-of-range thresholds, each with the flag that carries it.
const std::vector<std::pair<std::string, std::string>> kBadThresholds{
    {"--c-lift", "0.5"}, {"--c-supp", "nan"}, {"--min-lift", "-1"},
    {"--min-support", "0"}, {"--max-length", "0"}};

TEST(Cli, MineMissingCsvFileIsError) {
  const auto result = run_cli(
      {"mine", "--csv", "/does/not/exist.csv", "--keyword", "Failed"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("exist.csv"), std::string::npos);
  // Thresholds are checked before the CSV is read: the error names the
  // flag, not the file.
  for (const auto& [flag, value] : kBadThresholds) {
    const auto bad = run_cli({"mine", "--csv", "/does/not/exist.csv",
                              "--keyword", "Failed", flag, value});
    EXPECT_EQ(bad.code, 2) << flag;
    EXPECT_EQ(bad.err.rfind(flag + ": ", 0), 0u) << bad.err;
    EXPECT_EQ(bad.err.find("exist.csv"), std::string::npos) << bad.err;
  }
}

TEST(Cli, MineOutputFormats) {
  const std::string csv = temp_path("cli_fmt.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  const std::vector<std::string> base = {"mine",  "--csv",    csv,
                                         "--keyword", "Failed", "--bare",
                                         "Status"};
  auto with_format = [&](const char* format) {
    auto args = base;
    args.push_back("--format");
    args.push_back(format);
    return run_cli(args);
  };
  const auto table = with_format("table");
  EXPECT_EQ(table.code, 0);
  EXPECT_NE(table.out.find("cause analysis"), std::string::npos);
  const auto csv_out = with_format("csv");
  EXPECT_EQ(csv_out.code, 0);
  EXPECT_NE(csv_out.out.find("kind,antecedent,consequent"),
            std::string::npos);
  const auto json_out = with_format("json");
  EXPECT_EQ(json_out.code, 0);
  EXPECT_NE(json_out.out.find("\"keyword\":\"Failed\""), std::string::npos);
  const auto md = with_format("md");
  EXPECT_EQ(md.code, 0);
  EXPECT_NE(md.out.find("| Antecedent |"), std::string::npos);
  EXPECT_EQ(with_format("yaml").code, 2);

  // csv and json list every rule, so an explicit --max-rows there is
  // rejected, not ignored (the default above keeps working).
  for (const char* format : {"csv", "json"}) {
    auto args = base;
    args.insert(args.end(), {"--format", format, "--max-rows", "3"});
    const auto capped = run_cli(args);
    EXPECT_EQ(capped.code, 2) << format;
    EXPECT_NE(capped.err.find("--max-rows"), std::string::npos);
  }
}

TEST(Cli, ItemsetsSaveThenMineLoad) {
  const std::string csv = temp_path("cli_save.csv");
  const std::string archive = temp_path("cli_save.itemsets");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  const auto saved = run_cli({"itemsets", "--csv", csv, "--bare", "Status",
                              "--save", archive, "--top", "1"});
  ASSERT_EQ(saved.code, 0) << saved.err;
  EXPECT_NE(saved.out.find("saved itemsets"), std::string::npos);

  // Mining from the archive must match mining from the CSV.
  const auto from_csv = run_cli(
      {"mine", "--csv", csv, "--keyword", "Failed", "--bare", "Status"});
  const auto from_archive =
      run_cli({"mine", "--load", archive, "--keyword", "Failed"});
  ASSERT_EQ(from_archive.code, 0) << from_archive.err;
  EXPECT_EQ(from_csv.out, from_archive.out);

  // One format: a snapshot with rules replays the same way, and
  // re-generating rules over the saved family writes the very bytes
  // `snapshot --csv` writes with the same flags.
  const std::string from_csv_snap = temp_path("cli_save_csv.snap");
  const std::string from_archive_snap = temp_path("cli_save_archive.snap");
  ASSERT_EQ(run_cli({"snapshot", "--csv", csv, "--bare", "Status", "--out",
                     from_csv_snap})
                .code,
            0);
  ASSERT_EQ(run_cli({"snapshot", "--from-itemsets", archive, "--out",
                     from_archive_snap})
                .code,
            0);
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string snap_bytes = slurp(from_csv_snap);
  ASSERT_FALSE(snap_bytes.empty());
  EXPECT_EQ(slurp(from_archive_snap), snap_bytes);
  const auto from_snapshot =
      run_cli({"mine", "--load", from_csv_snap, "--keyword", "Failed"});
  ASSERT_EQ(from_snapshot.code, 0) << from_snapshot.err;
  EXPECT_EQ(from_snapshot.out, from_csv.out);
}

TEST(Cli, MineLoadMissingArchive) {
  const auto result =
      run_cli({"mine", "--load", "/no/such.itemsets", "--keyword", "X"});
  EXPECT_EQ(result.code, 2);

  // A text archive in the retired version 1 format is not a snapshot.
  const std::string text = temp_path("cli_text_archive.itemsets");
  std::ofstream(text) << "gpumine-itemsets v1\ndb_size 5\nitems 1\n0 a\n"
                         "itemsets 1\n3 1 0\n";
  const auto rejected = run_cli({"mine", "--load", text, "--keyword", "a"});
  EXPECT_EQ(rejected.code, 2);
  EXPECT_NE(rejected.err.find("bad magic"), std::string::npos) << rejected.err;
}

TEST(Cli, PredictEndToEnd) {
  const std::string csv = temp_path("cli_trace5.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "pai", "--jobs", "6000", "--out",
                     csv})
                .code,
            0);
  const auto result = run_cli(
      {"predict", "--csv", csv, "--target", "Failed", "--bare",
       "Status,Framework,Tasks", "--group", "User,Group", "--drop",
       "job_id,Queue,Runtime,CPU Util,Memory Used,SM Util,GMem Used"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("precision="), std::string::npos);
  EXPECT_NE(result.out.find("rule[0]"), std::string::npos);
}

TEST(Cli, PredictValidation) {
  const std::string csv = temp_path("cli_trace6.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "1000",
                     "--out", csv})
                .code,
            0);
  // Missing --target.
  EXPECT_EQ(run_cli({"predict", "--csv", csv}).code, 2);
  // Bad holdout.
  EXPECT_EQ(run_cli({"predict", "--csv", csv, "--target", "Failed",
                     "--holdout", "1.5"})
                .code,
            2);
  // Unknown target item.
  EXPECT_EQ(run_cli({"predict", "--csv", csv, "--target", "Nope", "--bare",
                     "Status"})
                .code,
            1);
}

TEST(Cli, DigestEndToEnd) {
  const std::string csv = temp_path("cli_digest.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "pai", "--jobs", "6000", "--out",
                     csv})
                .code,
            0);
  const auto result = run_cli({"digest", "--csv", csv, "--keyword", "Failed",
                               "--bare", "Status,Framework", "--group",
                               "User,Group", "--exclude", "Terminated"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("digest (greedy coverage"), std::string::npos);
  EXPECT_NE(result.out.find("certified"), std::string::npos);
  EXPECT_NE(result.out.find("safe patterns"), std::string::npos);
  EXPECT_EQ(result.out.find("{Terminated}"), std::string::npos);
  // Missing keyword.
  EXPECT_EQ(run_cli({"digest", "--csv", csv}).code, 2);
}

TEST(Cli, CompareArchives) {
  const std::string csv_a = temp_path("cli_cmp_a.csv");
  const std::string csv_b = temp_path("cli_cmp_b.csv");
  const std::string ar_a = temp_path("cli_cmp_a.itemsets");
  const std::string ar_b = temp_path("cli_cmp_b.itemsets");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "3000",
                     "--seed", "1", "--out", csv_a})
                .code,
            0);
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "3000",
                     "--seed", "2", "--out", csv_b})
                .code,
            0);
  ASSERT_EQ(run_cli({"itemsets", "--csv", csv_a, "--bare", "Status",
                     "--save", ar_a})
                .code,
            0);
  ASSERT_EQ(run_cli({"itemsets", "--csv", csv_b, "--bare", "Status",
                     "--save", ar_b})
                .code,
            0);
  const auto result =
      run_cli({"compare", "--a", ar_a, "--b", ar_b, "--keyword", "Failed"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("shared:"), std::string::npos);
  // Same generator, different seed: overlap should be substantial.
  EXPECT_EQ(result.out.find("Jaccard 0)"), std::string::npos);
  // Missing flags.
  EXPECT_EQ(run_cli({"compare", "--a", ar_a}).code, 2);
}

TEST(Cli, ReportDrilldown) {
  const std::string csv = temp_path("cli_report.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "supercloud", "--jobs", "3000",
                     "--out", csv})
                .code,
            0);
  const auto result = run_cli({"report", "--csv", csv, "--top", "3"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("principal"), std::string::npos);
  EXPECT_NE(result.out.find("idle%"), std::string::npos);
  // Bad sort flag.
  EXPECT_EQ(run_cli({"report", "--csv", csv, "--sort", "sideways"}).code, 2);
  // Missing CSV.
  EXPECT_EQ(run_cli({"report"}).code, 2);
}

TEST(Cli, ItemsetsFamilySelection) {
  const std::string csv = temp_path("cli_family.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "2000", "--out",
                     csv})
                .code,
            0);
  auto count_of = [&](const char* family) {
    const auto result = run_cli({"itemsets", "--csv", csv, "--bare",
                                 "Status", "--family", family, "--top", "1"});
    EXPECT_EQ(result.code, 0) << result.err;
    return std::stoul(result.out.substr(result.out.find_first_of("0123456789")));
  };
  const auto all = count_of("all");
  const auto closed = count_of("closed");
  const auto maximal = count_of("maximal");
  EXPECT_LE(closed, all);
  EXPECT_LE(maximal, closed);
  EXPECT_GT(maximal, 0u);
  EXPECT_EQ(run_cli({"itemsets", "--csv", csv, "--family", "open"}).code, 2);
  // Replaying regenerates rules, which a closed or maximal family cannot
  // support: saving one is rejected up front.
  for (const char* family : {"closed", "maximal"}) {
    const auto saved = run_cli({"itemsets", "--csv", csv, "--family", family,
                                "--save", temp_path("cli_family.snap")});
    EXPECT_EQ(saved.code, 2) << family;
    EXPECT_NE(saved.err.find("--save"), std::string::npos) << saved.err;
  }
}

TEST(Cli, ItemsetsMinSupportCheckedBeforeCsv) {
  for (const char* min_support : {"0", "2"}) {
    const auto bad = run_cli({"itemsets", "--csv", "/does/not/exist.csv",
                              "--min-support", min_support});
    EXPECT_EQ(bad.code, 2) << min_support;
    EXPECT_EQ(bad.err.rfind("--min-support: ", 0), 0u) << bad.err;
  }
}

// FP-Growth is the only miner, so the flags that once chose another are
// unknown flags now. Every command that mines a CSV rejects them, like
// any unknown flag, before it opens the file: the missing CSV is never
// reported.
TEST(Cli, RetiredMinerFlagsAreRejectedBeforeTheCsvIsRead) {
  const std::string missing_csv = "/does/not/exist.csv";
  const std::vector<std::vector<std::string>> commands{
      {"itemsets"},
      {"mine", "--keyword", "Failed"},
      {"snapshot", "--out", temp_path("cli_retired.snap")},
      {"predict", "--target", "Failed"},
      {"digest", "--keyword", "Failed"},
  };
  const std::vector<std::pair<std::string, std::string>> retired{
      {"algorithm", "fpgrowth"},
      {"engine", "direct"},
      {"partitions", "4"},
  };
  for (const auto& command : commands) {
    for (const auto& [flag, value] : retired) {
      std::vector<std::string> args = command;
      args.insert(args.end(), {"--csv", missing_csv, "--" + flag, value});
      const auto result = run_cli(args);
      EXPECT_EQ(result.code, 2) << command[0] << " --" << flag;
      EXPECT_EQ(result.err.rfind("unknown flag --" + flag, 0), 0u)
          << command[0] << ": " << result.err;
    }
  }
}

TEST(Cli, SnapshotValidation) {
  // --out is mandatory.
  const auto no_out = run_cli({"snapshot"});
  EXPECT_EQ(no_out.code, 2);
  EXPECT_NE(no_out.err.find("--out"), std::string::npos);
  // A missing archive is a clean usage error, not a crash.
  EXPECT_EQ(run_cli({"snapshot", "--from-itemsets", "/no/such.itemsets",
                     "--out", temp_path("x.snap")})
                .code,
            2);
  // An out-of-range threshold is rejected before any input is read, and
  // no snapshot is written that `serve` or `mine --load` would refuse.
  const std::string out = temp_path("bad_params.snap");
  for (const auto& [flag, value] : kBadThresholds) {
    const auto bad = run_cli({"snapshot", "--csv", "/does/not/exist.csv",
                              "--out", out, flag, value});
    EXPECT_EQ(bad.code, 2) << flag;
    EXPECT_EQ(bad.err.rfind(flag + ": ", 0), 0u) << bad.err;
  }
  const auto replay = run_cli({"snapshot", "--from-itemsets",
                               "/no/such.itemsets", "--out", out, "--c-lift",
                               "0.5"});
  EXPECT_EQ(replay.code, 2);
  EXPECT_EQ(replay.err.rfind("--c-lift: ", 0), 0u) << replay.err;
  const std::string csv = temp_path("cli_bad_params.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "500", "--out",
                     csv})
                .code,
            0);
  EXPECT_EQ(
      run_cli({"snapshot", "--csv", csv, "--out", out, "--c-lift", "0.5"})
          .code,
      2);
  EXPECT_FALSE(std::ifstream(out).good());
}

TEST(Cli, SnapshotThenServeCheck) {
  const std::string csv = temp_path("cli_serve.csv");
  const std::string snap = temp_path("cli_serve.snap");
  ASSERT_EQ(run_cli({"synth", "--trace", "pai", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  const auto snapshot = run_cli({"snapshot", "--csv", csv, "--out", snap});
  ASSERT_EQ(snapshot.code, 0) << snapshot.err;
  EXPECT_NE(snapshot.out.find("wrote snapshot:"), std::string::npos);

  // --check loads the snapshot, binds an ephemeral port, and exits 0.
  const auto check = run_cli(
      {"serve", "--snapshot", snap, "--port", "0", "--check"});
  ASSERT_EQ(check.code, 0) << check.err;
  EXPECT_NE(check.out.find("loaded "), std::string::npos);
  EXPECT_NE(check.out.find("serving on 127.0.0.1:"), std::string::npos);
}

TEST(Cli, ServeValidation) {
  const auto no_snapshot = run_cli({"serve"});
  EXPECT_EQ(no_snapshot.code, 2);
  EXPECT_NE(no_snapshot.err.find("--snapshot"), std::string::npos);
  EXPECT_EQ(run_cli({"serve", "--snapshot", "x.snap", "--port", "70000"})
                .code,
            2);
  // A path that doesn't load is a runtime failure, not a usage error.
  EXPECT_EQ(run_cli({"serve", "--snapshot", "/no/such.snap", "--check"}).code,
            1);
}

TEST(Cli, QueryValidation) {
  // Exactly one action must be picked.
  EXPECT_EQ(run_cli({"query"}).code, 2);
  EXPECT_EQ(
      run_cli({"query", "--keyword", "Failed", "--stats"}).code, 2);
  const auto both = run_cli({"query", "--health", "--reload"});
  EXPECT_EQ(both.code, 2);
  EXPECT_NE(both.err.find("exactly one"), std::string::npos);
}

TEST(Cli, QueryAgainstLiveServer) {
  // Build a snapshot through the CLI, serve it in-process, and drive the
  // `query` client over a real socket.
  const std::string csv = temp_path("cli_query.csv");
  const std::string snap = temp_path("cli_query.snap");
  ASSERT_EQ(run_cli({"synth", "--trace", "pai", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  ASSERT_EQ(run_cli({"snapshot", "--csv", csv, "--out", snap}).code, 0);

  auto loaded = core::load_rule_snapshot_file(snap);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  auto engine = std::make_shared<const serve::QueryEngine>(
      std::move(loaded).value());
  serve::RequestHandler handler(engine, snap);
  serve::Server server(handler, {});
  ASSERT_TRUE(server.start().ok());
  const std::string port = std::to_string(server.port());

  const auto health = run_cli({"query", "--port", port, "--health"});
  EXPECT_EQ(health.code, 0) << health.err;
  EXPECT_EQ(health.out, "ok\n");

  // The client percent-encodes keywords with spaces, '=' and '%'.
  const auto keyword = run_cli(
      {"query", "--port", port, "--keyword", "SM Util = 0%"});
  EXPECT_EQ(keyword.code, 0) << keyword.err;
  EXPECT_EQ(keyword.out, *engine->query_json("SM Util = 0%") + "\n");

  const auto missing = run_cli(
      {"query", "--port", port, "--keyword", "No Such Item"});
  EXPECT_EQ(missing.code, 1);

  const auto support = run_cli(
      {"query", "--port", port, "--items", "SM Util = 0%,GMem = 0%"});
  EXPECT_EQ(support.code, 0) << support.err;
  EXPECT_NE(support.out.find("\"frequent\":"), std::string::npos);

  const auto stats = run_cli({"query", "--port", port, "--stats"});
  EXPECT_EQ(stats.code, 0) << stats.err;
  EXPECT_NE(stats.out.find("\"total_requests\":"), std::string::npos);

  const auto reload = run_cli({"query", "--port", port, "--reload"});
  EXPECT_EQ(reload.code, 0) << reload.err;
  EXPECT_NE(reload.out.find("\"reloaded\":true"), std::string::npos);

  server.stop();
  // With the server gone, the client reports a connection error.
  EXPECT_EQ(run_cli({"query", "--port", port, "--health"}).code, 1);
}

TEST(Cli, MineTraceAndStatsJsonRoundTrip) {
  const std::string csv = temp_path("cli_traced.csv");
  const std::string trace = temp_path("cli_traced_trace.json");
  const std::string stats = temp_path("cli_traced_stats.json");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  const auto mine = run_cli({"mine", "--csv", csv, "--keyword", "Failed",
                             "--bare", "Status", "--stats", "--trace", trace,
                             "--stats-json", stats});
  ASSERT_EQ(mine.code, 0) << mine.err;
  // The CLI self-checks the exported file and reports the span count.
  EXPECT_NE(mine.out.find("wrote trace:"), std::string::npos);
  EXPECT_NE(mine.out.find("trace spans (per name, sorted):"),
            std::string::npos);

  // trace-check accepts the file the miner just wrote.
  const auto check = run_cli({"trace-check", "--file", trace});
  EXPECT_EQ(check.code, 0) << check.err;
  EXPECT_NE(check.out.find("well-formed spans"), std::string::npos);

  // The stats JSON sidecar embeds the span summary next to the metrics.
  std::ifstream in(stats);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string stats_text = buffer.str();
  EXPECT_NE(stats_text.find("\"trace_spans\":"), std::string::npos);
  EXPECT_NE(stats_text.find("\"prep_stage\":"), std::string::npos);
  EXPECT_NE(stats_text.find("\"mine/fpgrowth\""), std::string::npos);
}

// Every stage of a command runs on one compute pool that outlives the
// command. Its parked workers hold `pool/idle` spans across the next
// command's Tracer::reset(); those spans belong to the earlier run and
// must record nothing in the later one. Each run's trace holds the
// calling thread and the pool's four workers, no more.
TEST(Cli, RepeatedTracedMinesInOneProcessValidate) {
  const std::string csv = temp_path("cli_repeat.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  for (int run = 0; run < 3; ++run) {
    const std::string trace =
        temp_path("cli_repeat_" + std::to_string(run) + ".json");
    const auto begin = std::chrono::steady_clock::now();
    const auto mine =
        run_cli({"mine", "--csv", csv, "--keyword", "Failed", "--bare",
                 "Status", "--threads", "4", "--trace", trace});
    const double run_us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - begin)
                              .count();
    ASSERT_EQ(mine.code, 0) << "run " << run << ": " << mine.err;
    const auto checked = validate_chrome_trace_file(trace);
    ASSERT_TRUE(checked.ok()) << "run " << run << ": "
                              << checked.error().to_string();

    std::ifstream in(trace);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::set<std::string> tids;
    for (std::size_t at = text.find("\"dur\":"); at != std::string::npos;
         at = text.find("\"dur\":", at + 1)) {
      EXPECT_LE(std::stod(text.substr(at + 6)), run_us) << "run " << run;
    }
    for (std::size_t at = text.find("\"tid\":"); at != std::string::npos;
         at = text.find("\"tid\":", at + 1)) {
      tids.insert(text.substr(at + 6, text.find(',', at) - at - 6));
    }
    EXPECT_LE(tids.size(), 5u) << "run " << run;
  }
}

TEST(Cli, MineMetricsOutWritesLintedExposition) {
  const std::string csv = temp_path("cli_metrics.csv");
  const std::string prom = temp_path("cli_metrics.prom");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  const auto mine = run_cli({"mine", "--csv", csv, "--keyword", "Failed",
                             "--bare", "Status", "--metrics-out", prom});
  ASSERT_EQ(mine.code, 0) << mine.err;
  EXPECT_NE(mine.out.find("wrote metrics:"), std::string::npos);

  // metrics-check accepts the file the miner just wrote.
  const auto check = run_cli({"metrics-check", "--file", prom});
  EXPECT_EQ(check.code, 0) << check.err;
  EXPECT_NE(check.out.find("well-formed series"), std::string::npos);

  std::ifstream in(prom);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("# TYPE gpumine_mining_wall_seconds gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gpumine_rules_funnel_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("gpumine_prep_transactions{kind=\"input\"}"),
            std::string::npos);
}

TEST(Cli, MetricsCheckRejectsMissingAndMalformedFiles) {
  EXPECT_EQ(run_cli({"metrics-check"}).code, 2);
  EXPECT_EQ(
      run_cli({"metrics-check", "--file", temp_path("no_such.prom")}).code,
      1);
  const std::string bad = temp_path("cli_bad_metrics.prom");
  {
    std::ofstream out(bad);
    out << "orphan_sample 1\n";
  }
  const auto result = run_cli({"metrics-check", "--file", bad});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("invalid metrics"), std::string::npos);
}

TEST(Cli, ServeCheckScrapesAndLintsMetrics) {
  const std::string csv = temp_path("cli_serve_metrics.csv");
  const std::string snap = temp_path("cli_serve_metrics.snap");
  const std::string prom = temp_path("cli_serve_metrics.prom");
  ASSERT_EQ(run_cli({"synth", "--trace", "pai", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  ASSERT_EQ(run_cli({"snapshot", "--csv", csv, "--out", snap}).code, 0);

  const auto check = run_cli({"serve", "--snapshot", snap, "--port", "0",
                              "--check", "--metrics-out", prom});
  ASSERT_EQ(check.code, 0) << check.err;
  EXPECT_NE(check.out.find("metrics check ok:"), std::string::npos);
  EXPECT_NE(check.out.find("wrote metrics:"), std::string::npos);
  // The probes went over the socket the server bound.
  const std::string serving = "serving on 127.0.0.1:";
  const auto at = check.out.find(serving);
  ASSERT_NE(at, std::string::npos) << check.out;
  const std::string port = check.out.substr(
      at + serving.size(),
      check.out.find(' ', at + serving.size()) - at - serving.size());
  EXPECT_NE(check.out.find("probing 127.0.0.1:" + port + "\n"),
            std::string::npos)
      << check.out;

  EXPECT_EQ(run_cli({"metrics-check", "--file", prom}).code, 0);
  std::ifstream in(prom);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("gpumine_server_requests_total{endpoint=\"health\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("gpumine_snapshot_rules "), std::string::npos);
}

// A traced `serve --check` attributes the reload path: the snapshot
// load, the engine build with its one indexing pass, and one task per
// keyword with the pruning nested inside.
TEST(Cli, ServeCheckTraceHasReloadSpans) {
  const std::string csv = temp_path("cli_serve_trace.csv");
  const std::string snap = temp_path("cli_serve_trace.snap");
  const std::string trace = temp_path("cli_serve_trace.json");
  ASSERT_EQ(run_cli({"synth", "--trace", "pai", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  ASSERT_EQ(run_cli({"snapshot", "--csv", csv, "--out", snap}).code, 0);
  const auto serve = run_cli({"serve", "--snapshot", snap, "--port", "0",
                              "--check", "--trace", trace});
  ASSERT_EQ(serve.code, 0) << serve.err;
  const auto check = run_cli({"trace-check", "--file", trace});
  EXPECT_EQ(check.code, 0) << check.err;

  std::ifstream in(trace);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  for (const char* name : {"snapshot/load", "serve/engine_build",
                           "serve/engine_index", "serve/engine_keyword",
                           "rules/prune"}) {
    EXPECT_NE(text.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << name;
  }
}

TEST(Cli, MineFlightDumpLeavesALoadableBundle) {
  const std::string csv = temp_path("cli_flight.csv");
  const std::string dump = temp_path("cli_flight_dump.json");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  const auto mine = run_cli({"mine", "--csv", csv, "--keyword", "Failed",
                             "--bare", "Status", "--flight-dump", dump});
  ASSERT_EQ(mine.code, 0) << mine.err;
  // A clean run still leaves a dump of the retained rings, and it must
  // load as a Chrome trace.
  const auto check = run_cli({"trace-check", "--file", dump});
  EXPECT_EQ(check.code, 0) << check.err;
}

TEST(Cli, MineRejectsBadLogLevelAndAcceptsLogFile) {
  const std::string csv = temp_path("cli_log.csv");
  const std::string log = temp_path("cli_log.jsonl");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "2000", "--out",
                     csv})
                .code,
            0);
  const auto bad = run_cli({"mine", "--csv", csv, "--keyword", "Failed",
                            "--bare", "Status", "--log-level", "loud"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("log"), std::string::npos);

  const auto good = run_cli({"mine", "--csv", csv, "--keyword", "Failed",
                             "--bare", "Status", "--log-level", "debug",
                             "--log-file", log});
  EXPECT_EQ(good.code, 0) << good.err;
  Logger::instance().reset_for_tests();
}

TEST(Cli, TraceCheckRejectsMissingAndMalformedFiles) {
  EXPECT_EQ(run_cli({"trace-check"}).code, 2);
  EXPECT_EQ(run_cli({"trace-check", "--file", temp_path("no_such.json")}).code,
            1);
  const std::string bad = temp_path("cli_bad_trace.json");
  {
    std::ofstream out(bad);
    out << "{\"traceEvents\":[]}";
  }
  const auto result = run_cli({"trace-check", "--file", bad});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("invalid trace"), std::string::npos);
}

}  // namespace
}  // namespace gpumine::cli
