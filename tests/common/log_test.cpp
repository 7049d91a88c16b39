// Structured JSON logger: record shape, level gating, file sinks, and
// repeat suppression. The Logger is process-wide, so every test routes
// the sink into a fresh temp file and calls reset_for_tests() after.
#include "common/log.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace gpumine {
namespace {

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/log_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".jsonl";
    std::remove(path_.c_str());
    ASSERT_TRUE(Logger::instance().open_file(path_).ok());
    Logger::instance().set_level(LogLevel::kDebug);
  }
  void TearDown() override { Logger::instance().reset_for_tests(); }

  std::vector<std::string> lines() const {
    Logger::instance().reset_for_tests();  // flush + close the file sink
    std::ifstream file(path_);
    std::vector<std::string> out;
    std::string line;
    while (std::getline(file, line)) {
      if (!line.empty()) out.push_back(line);
    }
    return out;
  }

  std::string path_;
};

TEST_F(LogTest, EmitsOneJsonObjectPerLine) {
  log_info("test", "hello", {{"answer", 42}, {"ratio", 0.5}, {"on", true}});
  const auto emitted = lines();
  ASSERT_EQ(emitted.size(), 1u);
  const std::string& line = emitted[0];
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"level\":\"info\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"component\":\"test\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"msg\":\"hello\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"answer\":42"), std::string::npos) << line;
  EXPECT_NE(line.find("\"ratio\":0.5"), std::string::npos) << line;
  EXPECT_NE(line.find("\"on\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"ts\":"), std::string::npos) << line;
}

TEST_F(LogTest, EscapesMessageText) {
  log_warn("test", "quote \" slash \\ newline \n tab \t");
  const auto emitted = lines();
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_NE(emitted[0].find("quote \\\" slash \\\\ newline \\n tab \\t"),
            std::string::npos)
      << emitted[0];
}

TEST_F(LogTest, RawFieldsEmbedJsonVerbatim) {
  log_error("test", "payload", {LogField::raw("spans", "[{\"a\":1}]")});
  const auto emitted = lines();
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_NE(emitted[0].find("\"spans\":[{\"a\":1}]"), std::string::npos)
      << emitted[0];
}

TEST_F(LogTest, RecordsBelowTheLevelAreDropped) {
  Logger::instance().set_level(LogLevel::kWarn);
  log_debug("test", "too quiet");
  log_info("test", "still too quiet");
  log_warn("test", "loud enough");
  const auto emitted = lines();
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_NE(emitted[0].find("loud enough"), std::string::npos);
}

TEST_F(LogTest, LevelOffSilencesEverything) {
  Logger::instance().set_level(LogLevel::kOff);
  log_error("test", "even errors");
  EXPECT_TRUE(lines().empty());
}

TEST_F(LogTest, RepeatedRecordsAreSuppressedWithinTheWindow) {
  for (int i = 0; i < 50; ++i) log_info("test", "same thing");
  const auto emitted = lines();
  // First record goes through; the other 49 land inside the 1s window.
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_NE(emitted[0].find("same thing"), std::string::npos);
}

TEST_F(LogTest, DistinctMessagesAreNotSuppressed) {
  log_info("test", "first");
  log_info("test", "second");
  log_info("other", "first");
  EXPECT_EQ(lines().size(), 3u);
}

TEST(ParseLogLevel, AcceptsKnownNamesAndRejectsOthers) {
  EXPECT_EQ(parse_log_level("debug").value(), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info").value(), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn").value(), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning").value(), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error").value(), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off").value(), LogLevel::kOff);
  EXPECT_FALSE(parse_log_level("loud").ok());
  EXPECT_FALSE(parse_log_level("").ok());
}

TEST(LogLevelNames, RoundTrip) {
  EXPECT_STREQ(to_string(LogLevel::kDebug), "debug");
  EXPECT_STREQ(to_string(LogLevel::kInfo), "info");
  EXPECT_STREQ(to_string(LogLevel::kWarn), "warn");
  EXPECT_STREQ(to_string(LogLevel::kError), "error");
}

}  // namespace
}  // namespace gpumine
