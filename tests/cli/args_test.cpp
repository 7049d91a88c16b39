#include "cli/args.hpp"

#include <gtest/gtest.h>

namespace gpumine::cli {
namespace {

// One flag of each kind, over fields of Args.
const Flag kTestFlags[] = {
    {.name = "verbose", .help = "a switch",
     .field = +[](Args& args) -> auto& { return args.check; }},
    {.name = "csv", .help = "a text",
     .field = +[](Args& args) -> auto& { return args.csv; }},
    {.name = "format", .help = "a choice",
     .field = +[](Args& args) -> auto& { return args.format; },
     .limit = "table|csv"},
    {.name = "bare", .help = "a list",
     .field = +[](Args& args) -> auto& { return args.group; }},
    {.name = "n", .help = "a count",
     .field = +[](Args& args) -> auto& { return args.top; },
     .limit = Range{1, 100}},
    {.name = "f", .help = "a real",
     .field = +[](Args& args) -> auto& { return args.holdout; }},
};
const Command kTest{.name = "test", .summary = "a test table",
                    .flags = {kTestFlags}, .run = nullptr};

std::string error_of(const std::vector<std::string>& words) {
  const auto parsed = Args::parse(kTest, words);
  return parsed.ok() ? "" : parsed.error().to_string();
}

TEST(Args, FlagFormsAndPositionals) {
  const auto parsed = Args::parse(
      kTest, {"--csv", "trace.csv", "--f=0.1", "--verbose", "--bare", "a,,b"});
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const Args& args = parsed.value();
  EXPECT_EQ(args.csv, "trace.csv");
  EXPECT_DOUBLE_EQ(args.holdout, 0.1);
  EXPECT_TRUE(args.check);
  EXPECT_EQ(args.group, (std::vector<std::string>{"a", "b"}));
  // A switch takes no value, in either form, and a word that is no
  // flag's value is rejected by name.
  EXPECT_EQ(error_of({"--verbose", "yes"}).rfind("unexpected argument 'yes'"),
            0u);
  EXPECT_EQ(error_of({"--verbose=yes"}), "--verbose: is a switch and takes "
                                         "no value");
  EXPECT_EQ(error_of({"mine", "--csv", "x"}).rfind("unexpected argument"),
            0u);
}

TEST(Args, GetOrFallback) {
  const auto parsed = Args::parse(kTest, {"--csv", "x"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().csv, "x");
  EXPECT_EQ(parsed.value().format, "table");  // the field's default
  EXPECT_EQ(parsed.value().given, (std::set<std::string_view>{"csv"}));
  EXPECT_EQ(Args::parse(kTest, {"--format", "csv"}).value().format, "csv");
  EXPECT_EQ(error_of({"--format", "yaml"}),
            "--format: expected one of table|csv, got 'yaml'");
  EXPECT_FALSE(Args::parse(kTest, {"--format", "table|csv"}).ok());
}

TEST(Args, NumericGetters) {
  const auto parsed = Args::parse(kTest, {"--f", "0.25", "--n", "42"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed.value().holdout, 0.25);
  EXPECT_EQ(parsed.value().top, 42u);
  const auto absent = Args::parse(kTest, {});
  ASSERT_TRUE(absent.ok());
  EXPECT_DOUBLE_EQ(absent.value().holdout, 0.3);
  EXPECT_EQ(absent.value().top, 25u);
}

TEST(Args, NumericParseErrors) {
  EXPECT_EQ(error_of({"--f", "abc"}), "--f: expected a finite number, got "
                                      "'abc'");
  EXPECT_EQ(error_of({"--n", "-3"}), "--n: expected a non-negative integer, "
                                     "got '-3'");
  for (const char* non_finite : {"nan", "inf", "-inf"}) {
    EXPECT_EQ(error_of({"--f", non_finite}).rfind("--f: ", 0), 0u)
        << non_finite;
  }
  EXPECT_EQ(error_of({"--n", "0"}), "--n: must be in [1, 100], got 0");
  EXPECT_EQ(error_of({"--n", "101"}), "--n: must be in [1, 100], got 101");
}

TEST(Args, BareDoubleDashIsError) {
  EXPECT_FALSE(Args::parse(kTest, {"--"}).ok());
}

TEST(Args, ValueStartingWithDashDash) {
  // "--csv --verbose" leaves --csv without a value; the "=" form passes
  // a value that starts with "--".
  EXPECT_EQ(error_of({"--csv", "--verbose"}), "--csv: needs a value");
  EXPECT_EQ(error_of({"--csv"}), "--csv: needs a value");
  const auto parsed = Args::parse(kTest, {"--csv=--verbose"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().csv, "--verbose");
  EXPECT_FALSE(parsed.value().check);
}

TEST(Args, UnusedTracksUnqueriedFlags) {
  // A flag outside the table is rejected by name; so is a repeat.
  EXPECT_EQ(error_of({"--csv", "1", "--typo", "2"}), "unknown flag --typo");
  EXPECT_EQ(error_of({"--n", "9", "--n", "2"}), "--n: given more than once");
}

TEST(Args, EmptyInput) {
  const auto parsed = Args::parse(kTest, {});
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().given.empty());
  EXPECT_EQ(parsed.value().csv, "");
}

}  // namespace
}  // namespace gpumine::cli
