// Crash dumps and the Tracer's per-thread rings: ring retention with
// tracing off, slow-query span extraction, normal-context dumps, thread
// churn, and the crash path — a forked child SIGSEGVs and must leave a
// loadable Chrome-trace bundle behind.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/trace.hpp"

namespace gpumine {
namespace {

class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().disable();
    Tracer::instance().reset();
    Tracer::instance().set_ring_recording(true);
  }
  void TearDown() override {
    Tracer::instance().set_ring_recording(false);
    Tracer::instance().reset();
  }

  static std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream file(path);
    std::ostringstream text;
    text << file.rdbuf();
    return text.str();
  }
};

TEST_F(FlightTest, RetainsSpansWithFullTracingOff) {
  ASSERT_FALSE(Tracer::instance().enabled());
  ASSERT_TRUE(Tracer::instance().ring_recording());
  {
    Span outer("flight/outer");
    Span inner("flight/inner");
  }
  EXPECT_GE(Tracer::instance().thread_spans_since(0).size(), 2u);
  // Ring-only recording leaves the trace store untouched.
  EXPECT_TRUE(Tracer::instance().collect().empty());
}

TEST_F(FlightTest, ThreadSpansSinceFiltersByStartTimestamp) {
  { Span old_span("flight/old"); }
  const std::uint64_t cut = Tracer::instance().now_ns();
  { Span new_span("flight/new"); }
  const auto all = Tracer::instance().thread_spans_since(0);
  ASSERT_GE(all.size(), 2u);
  const auto recent = Tracer::instance().thread_spans_since(cut);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_STREQ(recent[0].name, "flight/new");
  EXPECT_GE(recent[0].start_ns, cut);
}

TEST_F(FlightTest, RingKeepsOnlyTheLastSpans) {
  for (std::size_t i = 0; i < Tracer::kRingSpans + 50; ++i) {
    Span span("flight/spin");
  }
  const auto spans = Tracer::instance().thread_spans_since(0);
  EXPECT_LE(spans.size(), Tracer::kRingSpans);
  EXPECT_GE(spans.size(), Tracer::kRingSpans - 1);
}

TEST_F(FlightTest, DumpFileIsALoadableChromeTrace) {
  {
    Span outer("flight/outer");
    Span inner("flight/inner");
  }
  const std::string path = temp_path("flight_dump.json");
  ASSERT_TRUE(write_flight_dump(path).ok());
  const auto checked = validate_chrome_trace_file(path);
  ASSERT_TRUE(checked.ok()) << checked.error().to_string();
  EXPECT_GE(checked.value(), 3u);  // outer + inner + the dump marker
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"crash_signal\":0"), std::string::npos);
  EXPECT_NE(text.find("flight/outer"), std::string::npos);
}

TEST_F(FlightTest, DumpCarriesRecentLogLines) {
  // Park the log sink in a scratch file; the log ring gets a mirror of
  // every emitted line regardless of sink.
  ASSERT_TRUE(
      Logger::instance().open_file(temp_path("flight_scratch.jsonl")).ok());
  Logger::instance().set_level(LogLevel::kDebug);
  log_warn("flight", "something odd", {{"attempt", 3}});
  Logger::instance().reset_for_tests();
  // As long as a /query slow-query line with its four spans.
  const std::string slow_query_line =
      "{\"msg\":\"" + std::string(466, 'q') + "\"}";
  ASSERT_EQ(slow_query_line.size(), 476u);
  record_log_line(slow_query_line);
  const std::string path = temp_path("flight_log_dump.json");
  ASSERT_TRUE(write_flight_dump(path).ok());
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"log\":["), std::string::npos);
  EXPECT_NE(text.find("something odd"), std::string::npos) << text;
  EXPECT_NE(text.find(slow_query_line), std::string::npos) << text;
}

// The marker is stamped on the span clock, after the rings are read: it
// lies between the last span's end and the tracer's now.
TEST_F(FlightTest, DumpMarkerIsOnTheTracerClock) {
  {
    Span outer("flight/outer");
    Span inner("flight/inner");
  }
  std::uint64_t last_end_ns = 0;
  for (const TraceEvent& ev : Tracer::instance().thread_spans_since(0)) {
    last_end_ns = std::max(last_end_ns, ev.start_ns + ev.duration_ns);
  }
  ASSERT_GT(last_end_ns, 0u);
  const std::string path = temp_path("flight_marker_dump.json");
  ASSERT_TRUE(write_flight_dump(path).ok());
  const double now_us =
      static_cast<double>(Tracer::instance().now_ns()) / 1e3;
  const std::string text = slurp(path);
  const std::size_t marker = text.find("{\"name\":\"flight/dump\"");
  ASSERT_NE(marker, std::string::npos) << text;
  const std::size_t ts = text.find("\"ts\":", marker);
  ASSERT_NE(ts, std::string::npos) << text;
  const double marker_us = std::stod(text.substr(ts + 5));
  EXPECT_GE(marker_us, static_cast<double>(last_end_ns) / 1e3) << text;
  EXPECT_LE(marker_us, now_us) << text;
}

// Thread churn, such as an engine pool per reload, must not use up the
// rings: each exited thread hands its buffer to the next, so the newest
// thread's span is in the dump and the thread ids stay small.
TEST_F(FlightTest, ThreadChurnKeepsRecentSpans) {
  ASSERT_FALSE(Tracer::instance().enabled());
  for (int i = 0; i < 200; ++i) {
    std::thread([i] {
      Span span(i == 199 ? "churn/last" : "churn/thread");
    }).join();
  }
  const std::string path = temp_path("flight_churn_dump.json");
  ASSERT_TRUE(write_flight_dump(path).ok());
  const auto checked = validate_chrome_trace_file(path);
  ASSERT_TRUE(checked.ok()) << checked.error().to_string();
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"name\":\"churn/last\""), std::string::npos)
      << text;
  for (std::size_t at = text.find("\"tid\":"); at != std::string::npos;
       at = text.find("\"tid\":", at + 1)) {
    EXPECT_LE(std::stoul(text.substr(at + 6)), 4u) << text.substr(at, 16);
  }
}

// The crash handler reads rings that other threads keep writing; what it
// writes must still be a well-formed trace.
TEST_F(FlightTest, CrashDumpWhileThreadsRecord) {
  const std::string path = temp_path("flight_busy_crash_dump.json");
  std::remove(path.c_str());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (!arm_crash_dump(path).ok()) _exit(3);
    std::atomic<std::uint64_t> recorded{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([&recorded] {
        while (true) {
          Span outer("busy/outer");
          { Span inner("busy/inner"); }
          recorded.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    // Let every ring wrap a few times before dying mid-write.
    while (recorded.load(std::memory_order_relaxed) <
           3 * 4 * Tracer::kRingSpans) {
    }
    ::raise(SIGSEGV);
    _exit(4);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited " << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);
  const auto checked = validate_chrome_trace_file(path);
  ASSERT_TRUE(checked.ok()) << checked.error().to_string();
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"crash_signal\":11"), std::string::npos);
  EXPECT_NE(text.find("busy/inner"), std::string::npos);
}

// A process that SIGSEGVs with an armed crash dump leaves a loadable
// Chrome-trace dump behind.
TEST_F(FlightTest, CrashDumpSurvivesSigsegv) {
  const std::string path = temp_path("flight_crash_dump.json");
  std::remove(path.c_str());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: arm, do some traced work, then die the hard way. Nothing
    // after the raise runs — the dump comes from the signal handler.
    if (!arm_crash_dump(path).ok()) _exit(3);
    {
      Span outer("crash/outer");
      Span inner("crash/inner");
    }
    ::raise(SIGSEGV);
    _exit(4);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited " << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);
  const auto checked = validate_chrome_trace_file(path);
  ASSERT_TRUE(checked.ok()) << checked.error().to_string();
  EXPECT_GE(checked.value(), 3u);
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"crash_signal\":11"), std::string::npos);
  EXPECT_NE(text.find("crash/outer"), std::string::npos);
}

TEST_F(FlightTest, DisarmRestoresPriorDisposition) {
  // Compare against the disposition captured before arming rather than
  // literal SIG_DFL: sanitizer runtimes (TSan/ASan) interpose their own
  // SIGSEGV handler, so the pre-arm state is the only portable baseline.
  struct sigaction before;
  ASSERT_EQ(::sigaction(SIGSEGV, nullptr, &before), 0);
  const std::string path = temp_path("flight_disarm.json");
  ASSERT_TRUE(arm_crash_dump(path).ok());
  struct sigaction armed;
  ASSERT_EQ(::sigaction(SIGSEGV, nullptr, &armed), 0);
  EXPECT_NE(armed.sa_sigaction, before.sa_sigaction);
  disarm_crash_dump();
  struct sigaction current;
  ASSERT_EQ(::sigaction(SIGSEGV, nullptr, &current), 0);
  EXPECT_EQ(current.sa_sigaction, before.sa_sigaction);
}

}  // namespace
}  // namespace gpumine
