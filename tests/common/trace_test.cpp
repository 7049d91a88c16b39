// Tracer/Span behaviour: multi-threaded nesting stays well-formed, the
// Chrome exporter round-trips through a JSON parser, summaries aggregate
// deterministically (name-sorted), and a disabled tracer records nothing.
//
// The Tracer is process-wide, so every test arms it with reset()+enable()
// and leaves it disabled and empty for whoever runs next.
#include "common/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace gpumine {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().disable();
    Tracer::instance().reset();
  }
  void TearDown() override {
    Tracer::instance().disable();
    Tracer::instance().reset();
  }
};

void spin_for_ns(std::uint64_t ns) {
  const std::uint64_t begin = Tracer::instance().now_ns();
  while (Tracer::instance().now_ns() - begin < ns) {
  }
}

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  {
    Span outer("test/outer");
    Span inner("test/inner");
  }
  EXPECT_TRUE(Tracer::instance().collect().empty());
  EXPECT_TRUE(Tracer::instance().summarize().empty());
  EXPECT_EQ(Tracer::instance().summary_json(), "[]");
}

TEST_F(TraceTest, RecordsNestedSpansWithDepths) {
  Tracer::instance().enable();
  {
    Span outer("test/outer");
    spin_for_ns(1000);
    {
      Span inner("test/inner");
      spin_for_ns(1000);
    }
  }
  Tracer::instance().disable();
  const auto events = Tracer::instance().collect();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by (tid, start): outer began first.
  EXPECT_STREQ(events[0].name, "test/outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_STREQ(events[1].name, "test/inner");
  EXPECT_EQ(events[1].depth, 1u);
  // Containment: inner lies inside outer.
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(events[1].start_ns + events[1].duration_ns,
            events[0].start_ns + events[0].duration_ns);
}

// The acceptance bar from the issue: under 8 threads, per-thread span
// streams must be well-formed — no partially overlapping spans on one
// thread, parents containing children, depths consistent with the
// number of enclosing spans in flight.
TEST_F(TraceTest, NestingUnder8ThreadsIsWellFormed) {
  Tracer::instance().enable();
  {
    ThreadPool pool(8);
    pool.parallel_for(64, [](std::size_t i) {
      Span outer("test/task");
      spin_for_ns(20'000);
      if (i % 2 == 0) {
        Span inner("test/subtask");
        spin_for_ns(20'000);
      }
    });
  }
  Tracer::instance().disable();
  const auto events = Tracer::instance().collect();
  // 64 outer + 32 inner at minimum (pool spans ride along).
  EXPECT_GE(events.size(), 96u);

  std::map<std::uint32_t, std::vector<TraceEvent>> by_tid;
  for (const TraceEvent& ev : events) by_tid[ev.tid].push_back(ev);
  for (auto& [tid, stream] : by_tid) {
    // collect() orders parents before children: (start asc, duration
    // desc). Replay with a stack to check proper nesting.
    std::vector<TraceEvent> stack;
    for (const TraceEvent& ev : stream) {
      const std::uint64_t end = ev.start_ns + ev.duration_ns;
      while (!stack.empty() &&
             ev.start_ns >= stack.back().start_ns + stack.back().duration_ns) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        const std::uint64_t parent_end =
            stack.back().start_ns + stack.back().duration_ns;
        EXPECT_LE(end, parent_end)
            << ev.name << " on tid " << tid << " partially overlaps "
            << stack.back().name;
        EXPECT_GT(ev.depth, stack.back().depth)
            << ev.name << " nested under " << stack.back().name;
      }
      stack.push_back(ev);
    }
  }
}

TEST_F(TraceTest, ExporterRoundTripsThroughJsonParser) {
  Tracer::instance().enable();
  {
    Span outer("test/\"quoted\"\\name");
    Span inner("test/inner");
  }
  Tracer::instance().disable();
  const std::string path = ::testing::TempDir() + "/trace_round_trip.json";
  ASSERT_TRUE(Tracer::instance().export_chrome_trace_file(path).ok());
  const auto checked = validate_chrome_trace_file(path);
  ASSERT_TRUE(checked.ok()) << checked.error().to_string();
  EXPECT_EQ(checked.value(), Tracer::instance().collect().size());
}

TEST_F(TraceTest, ValidatorRejectsMalformedDocuments) {
  EXPECT_FALSE(validate_chrome_trace_text("not json").ok());
  EXPECT_FALSE(validate_chrome_trace_text("{}").ok());
  EXPECT_FALSE(validate_chrome_trace_text("{\"traceEvents\":[]}").ok());
  // Missing dur.
  EXPECT_FALSE(
      validate_chrome_trace_text(
          "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":1,"
          "\"pid\":1,\"tid\":0}]}")
          .ok());
  // Partial overlap on one thread: [0, 10] and [5, 15].
  EXPECT_FALSE(
      validate_chrome_trace_text(
          "{\"traceEvents\":["
          "{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":10,\"pid\":1,"
          "\"tid\":0},"
          "{\"name\":\"b\",\"ph\":\"X\",\"ts\":5,\"dur\":10,\"pid\":1,"
          "\"tid\":0}]}")
          .ok());
}

TEST_F(TraceTest, SummaryIsNameSortedAndAggregated) {
  Tracer::instance().enable();
  {
    ThreadPool pool(4);
    pool.parallel_for(16, [](std::size_t) {
      Span z("test/zebra");
      Span a("test/aardvark");
    });
  }
  Tracer::instance().disable();
  const auto summary = Tracer::instance().summarize();
  ASSERT_GE(summary.size(), 2u);
  EXPECT_TRUE(std::is_sorted(summary.begin(), summary.end(),
                             [](const SpanSummary& a, const SpanSummary& b) {
                               return a.name < b.name;
                             }));
  std::uint64_t aardvark = 0;
  std::uint64_t zebra = 0;
  for (const SpanSummary& s : summary) {
    EXPECT_GT(s.count, 0u);
    EXPECT_GE(s.total_ns, s.max_ns);
    if (s.name == "test/aardvark") aardvark = s.count;
    if (s.name == "test/zebra") zebra = s.count;
  }
  EXPECT_EQ(aardvark, 16u);
  EXPECT_EQ(zebra, 16u);
  // The JSON mirror keeps the same deterministic order.
  const std::string json = Tracer::instance().summary_json();
  EXPECT_LT(json.find("test/aardvark"), json.find("test/zebra"));
}

TEST_F(TraceTest, ResetDropsEventsAndReusesCleanBuffers) {
  Tracer::instance().enable();
  { Span s("test/span"); }
  EXPECT_EQ(Tracer::instance().collect().size(), 1u);
  Tracer::instance().reset();
  EXPECT_TRUE(Tracer::instance().collect().empty());
  // Recording still works after a reset (thread re-registers).
  { Span s("test/after_reset"); }
  const auto events = Tracer::instance().collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test/after_reset");
}

// A span still open when reset() runs, such as a parked pool worker's
// `pool/idle`, began in the dropped epoch: it records nothing.
TEST_F(TraceTest, SpanOpenAcrossResetRecordsNothing) {
  Tracer::instance().enable();
  {
    Span open("test/open_across_reset");
    std::atomic<bool> opened{false};
    std::atomic<bool> reset_done{false};
    std::thread parked([&] {
      Span idle("test/parked");
      opened.store(true);
      while (!reset_done.load()) std::this_thread::yield();
    });
    while (!opened.load()) std::this_thread::yield();
    Tracer::instance().reset();
    reset_done.store(true);
    parked.join();
    Span after("test/after_reset");
  }
  Tracer::instance().disable();
  const auto events = Tracer::instance().collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test/after_reset");
}

// A thread that exits holding trace events keeps its buffer, its events
// and its tid until reset(): buffer reuse never loses or merges them.
TEST_F(TraceTest, ExitedThreadsKeepTheirTraceEvents) {
  Tracer::instance().enable();
  for (int i = 0; i < 50; ++i) {
    std::thread([] { Span s("test/exited"); }).join();
  }
  Tracer::instance().disable();
  const auto events = Tracer::instance().collect();
  ASSERT_EQ(events.size(), 50u);
  std::set<std::uint32_t> tids;
  for (const TraceEvent& ev : events) tids.insert(ev.tid);
  EXPECT_EQ(tids.size(), 50u);
}

TEST_F(TraceTest, ManyEventsCrossChunkBoundaries) {
  Tracer::instance().enable();
  constexpr std::size_t kEvents = 10'000;  // > 2 chunks of 4096
  for (std::size_t i = 0; i < kEvents; ++i) {
    Span s("test/tiny");
  }
  Tracer::instance().disable();
  const auto events = Tracer::instance().collect();
  ASSERT_EQ(events.size(), kEvents);
  // Single thread, depth 0, monotonically ordered.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].tid, events[0].tid);
    EXPECT_GE(events[i].start_ns, events[i - 1].start_ns);
  }
  const auto summary = Tracer::instance().summarize();
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary[0].count, kEvents);
}

}  // namespace
}  // namespace gpumine
