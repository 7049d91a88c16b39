// Runs the real gpumine binary in a child process, for the flag values
// that once aborted the process (an abort would kill an in-process
// test) and for the sweep over every bound the flag tables declare.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <variant>
#include <vector>

#include "cli/commands.hpp"

namespace gpumine::cli {
namespace {

struct ChildResult {
  int exit_code = -1;  // 128 + the signal when a signal ended the child
  std::string out;
  std::string err;
  std::string command;  // the command line, for failure messages
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Runs `gpumine args...` with stdout and stderr captured in files.
ChildResult run_gpumine(const std::vector<std::string>& args) {
  static std::atomic<int> runs{0};
  ChildResult result;
  result.command = GPUMINE_BINARY;
  for (const std::string& arg : args) result.command += " '" + arg + "'";
  const std::string stem = ::testing::TempDir() + "/gpumine_child_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(runs++);
  const std::string out_path = stem + ".out";
  const std::string err_path = stem + ".err";
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> argv{const_cast<char*>(GPUMINE_BINARY)};
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, GPUMINE_BINARY, &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    result.err = "posix_spawn failed: " + std::to_string(spawned);
    return result;
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) == pid) {
    result.exit_code =
        WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }
  result.out = slurp(out_path);
  result.err = slurp(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return result;
}

// The run was rejected with exit 2 by an error that starts with `--flag: `.
void expect_rejected(const ChildResult& result, const std::string& flag) {
  EXPECT_EQ(result.exit_code, 2) << result.command << "\n" << result.err;
  EXPECT_EQ(result.err.rfind("--" + flag + ": ", 0), 0u)
      << result.command << "\n" << result.err;
}

// Each of these once threw std::invalid_argument out of a params
// validate() and aborted with exit 134, all but the first after reading
// and binning the CSV. Each is now rejected before any file is opened:
// the missing CSV is never reported.
TEST(CliBinary, FormerAbortsExitTwoNamingTheFlag) {
  const std::string missing_csv = "/does/not/exist.csv";
  // The flag under test is the last but one word of each case.
  const std::vector<std::vector<std::string>> cases{
      {"report", "--csv", missing_csv, "--top", "0"},
      {"predict", "--csv", missing_csv, "--target", "Failed",
       "--min-confidence", "3"},
      {"digest", "--csv", missing_csv, "--keyword", "Failed", "--fdr", "5"},
      {"digest", "--csv", missing_csv, "--keyword", "Failed",
       "--negative-confidence", "2"},
      {"digest", "--csv", missing_csv, "--keyword", "Failed", "--max-rules",
       "0"},
  };
  for (const auto& args : cases) {
    const ChildResult result = run_gpumine(args);
    expect_rejected(result, args[args.size() - 2].substr(2));
    EXPECT_EQ(result.err.find("exist.csv"), std::string::npos)
        << result.command << "\n" << result.err;
  }
  const std::string out = ::testing::TempDir() + "/cli_binary_jobs0.csv";
  std::remove(out.c_str());
  expect_rejected(
      run_gpumine({"synth", "--trace", "pai", "--jobs", "0", "--out", out}),
      "jobs");
  EXPECT_FALSE(std::ifstream(out).good()) << out;
}

// Every flag, just past each bound its table declares, and every choice
// flag with a value it does not list, exits 2 naming the flag. So does
// every real flag given NaN or infinity. No accepted extreme is run.
TEST(CliBinary, EveryDeclaredBoundIsEnforced) {
  std::size_t runs = 0;
  for (const Command& command : command_table()) {
    for (const auto& group : command.flags) {
      for (const Flag& flag : group) {
        const bool real = std::holds_alternative<RealField>(flag.field);
        const auto* range = std::get_if<Range>(&flag.limit);
        std::vector<std::string> values;
        if (range != nullptr && real) {
          const double below =
              range->min - 1e-6 * std::max(1.0, std::abs(range->min));
          const double above =
              range->max + 1e-6 * std::max(1.0, std::abs(range->max));
          values.push_back(
              std::to_string(range->min_open ? range->min : below));
          values.push_back(
              std::to_string(range->max_open ? range->max : above));
        } else if (range != nullptr) {
          const auto min = static_cast<std::size_t>(range->min);
          if (min > 0) values.push_back(std::to_string(min - 1));
          values.push_back(
              std::to_string(static_cast<std::size_t>(range->max) + 1));
        }
        if (std::holds_alternative<std::string_view>(flag.limit)) {
          values.push_back("bogus");
        }
        if (real) values.insert(values.end(), {"nan", "inf"});
        for (const std::string& value : values) {
          expect_rejected(run_gpumine({std::string(command.name),
                                       "--" + std::string(flag.name), value}),
                          std::string(flag.name));
          ++runs;
        }
      }
    }
  }
  EXPECT_GT(runs, 0u);
}

}  // namespace
}  // namespace gpumine::cli
