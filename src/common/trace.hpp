// Low-overhead structured tracing for the whole pipeline, and the crash
// dump built on it.
//
// A Span is an RAII scope: construction stamps a start time, destruction
// records one completed event (name, thread, start, duration, nesting
// depth) into the calling thread's buffer. Each buffer keeps two stores,
// both filled by the one Tracer::record:
//   * the trace store (enable()): an unbounded chunk list for `--trace`.
//     The owning thread appends without taking a lock (one mutex
//     acquisition per 4096-event chunk, and chunk storage comes from a
//     per-thread Arena, so the hot path never calls malloc), and readers
//     observe completed events through a release/acquire counter, so a
//     live server can be summarized while request threads keep recording;
//   * the ring (set_ring_recording()): the thread's last kRingSpans spans,
//     for crash dumps (`--flight-dump`) and the slow-query log.
// Buffers are never freed. A thread that exits hands its buffer to the
// next new thread once the buffer holds no trace events, so threads that
// come and go neither grow memory nor drop spans.
//
// The process-wide Tracer is off by default; a disabled Span costs one
// relaxed atomic load and a branch. Defining GPUMINE_TRACING=0 compiles
// Span bodies out entirely. When enabled, the recording cost is bounded
// by span granularity — instrumentation sits at task/chunk level, never
// per row or per tree node — keeping overhead within the 2% budget.
//
// Export targets the Chrome trace-event JSON format ("X" complete
// events), loadable in Perfetto / chrome://tracing, plus a collapsed
// per-span-name summary whose rows are sorted by name so `--stats`
// output stays deterministic at any thread count. One writer, which
// uses only write(2), produces both `--trace` files and crash dumps.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

#ifndef GPUMINE_TRACING
#define GPUMINE_TRACING 1
#endif

namespace gpumine {

/// One completed span as drained from the buffers. `tid` is a small
/// sequential id a thread's buffer gets when the thread first records
/// after reset() (a buffer handed on by an exited thread keeps its id),
/// `start_ns` is relative to the Tracer epoch, `depth` is the nesting
/// level on the recording thread (0 = outermost).
struct TraceEvent {
  const char* name = nullptr;  // static-storage string literal
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
};

/// Collapsed per-name aggregate across all threads.
struct SpanSummary {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  // sum of durations (nested spans overlap)
  std::uint64_t max_ns = 0;    // longest single span
};

/// CLOCK_MONOTONIC in nanoseconds: the one clock behind spans, the crash
/// dump marker and the logger's repeat window. Async-signal-safe.
[[nodiscard]] std::uint64_t monotonic_ns();

/// Process-wide trace collector. A thread's buffer registers on its
/// first record; recording is wait-free for the owning thread apart from
/// one cold mutex per chunk. collect()/summarize() may run concurrently
/// with recording and see every event published before the call.
class Tracer {
 public:
  /// Spans each thread's ring keeps.
  static constexpr std::size_t kRingSpans = 256;

  static Tracer& instance();

  /// Turns the trace store on/off.
  void enable();
  void disable();
  [[nodiscard]] bool enabled() const {
    return (sinks_.load(std::memory_order_relaxed) & kSinkTrace) != 0;
  }

  /// Turns the per-thread rings on/off (independent of enable()).
  void set_ring_recording(bool on);
  [[nodiscard]] bool ring_recording() const {
    return (sinks_.load(std::memory_order_relaxed) & kSinkRing) != 0;
  }

  /// True when any store wants spans — the Span fast-path check.
  [[nodiscard]] bool active() const {
    return sinks_.load(std::memory_order_relaxed) != 0;
  }

  /// Drops every recorded span, restarts thread ids at 0 and moves the
  /// epoch to now. Spans may be in flight on any thread, such as a parked
  /// pool worker's `pool/idle`: one that began before the latest reset()
  /// records nothing. A live thread's buffer is emptied by that thread on
  /// its next record; until then readers skip it.
  void reset();

  /// Bumped by every reset(); a Span keeps the one it began in.
  [[nodiscard]] std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Nanoseconds since the tracer epoch. Async-signal-safe.
  [[nodiscard]] std::uint64_t now_ns() const {
    return monotonic_ns() - epoch_ns_.load(std::memory_order_relaxed);
  }

  /// Records one completed event on the calling thread's buffer, unless
  /// a reset() came after `generation` (the span's start).
  void record(const char* name, std::uint64_t start_ns,
              std::uint64_t duration_ns, std::uint32_t depth,
              std::uint64_t generation);

  /// Snapshot of the trace store, sorted by (tid, start, -duration) so
  /// parents precede their children deterministically.
  [[nodiscard]] std::vector<TraceEvent> collect() const;

  /// The calling thread's ring spans that started at or after `since_ns`,
  /// oldest first. The slow-query log calls this with the request's
  /// start.
  [[nodiscard]] std::vector<TraceEvent> thread_spans_since(
      std::uint64_t since_ns) const;

  /// Per-name aggregates, sorted by name.
  [[nodiscard]] std::vector<SpanSummary> summarize() const;

  /// Human-readable summary table (aligned columns, name-sorted).
  [[nodiscard]] std::string summary_table() const;

  /// JSON array of per-name aggregates, name-sorted:
  /// [{"name":...,"count":...,"total_ms":...,"max_ms":...},...]
  [[nodiscard]] std::string summary_json() const;

  /// Writes the trace store as a Chrome trace-event JSON document.
  [[nodiscard]] Result<bool> export_chrome_trace_file(
      const std::string& path) const;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  Tracer();

  static constexpr std::uint32_t kSinkTrace = 1u;
  static constexpr std::uint32_t kSinkRing = 2u;

  std::atomic<std::uint32_t> sinks_{0};
  std::atomic<std::uint64_t> epoch_ns_;
  std::atomic<std::uint64_t> generation_{1};
};

/// Validates a Chrome trace-event file written by the exporter: the
/// document parses as JSON, holds a non-empty `traceEvents` array of "X"
/// events with numeric ts/dur/pid/tid, and per-thread spans are
/// well-formed (properly nested, never partially overlapping). Returns
/// the number of events on success.
[[nodiscard]] Result<std::size_t> validate_chrome_trace_file(
    const std::string& path);

/// Same validation over an in-memory document (for tests).
[[nodiscard]] Result<std::size_t> validate_chrome_trace_text(
    const std::string& text);

/// Crash dumps (`--flight-dump`): pre-opens `path`, turns the rings on
/// and installs SIGSEGV/SIGABRT/SIGBUS handlers that write every ring
/// and the log ring there, then re-raise with the default disposition.
[[nodiscard]] Result<bool> arm_crash_dump(const std::string& path);

/// Restores the previous signal dispositions and closes the dump fd.
void disarm_crash_dump();

/// Writes the document the crash handler writes, from a normal context
/// and with crash_signal 0: {"crash_signal":0,"traceEvents":[rings...,
/// "flight/dump" marker],"log":[lines...]}. The marker is stamped last,
/// on the tracer clock, on a tid one past the highest thread id.
[[nodiscard]] Result<bool> write_flight_dump(const std::string& path);

/// Keeps one complete JSON log line for crash dumps (the last 128 are
/// kept; a line longer than 1,024 bytes is counted as dropped instead).
void record_log_line(std::string_view line);

#if GPUMINE_TRACING
/// RAII scope: records one event on destruction if the tracer was
/// enabled at construction. `name` must be a string literal (stored by
/// pointer). Spans nest: a thread-local depth counter tags each event.
class Span {
 public:
  explicit Span(const char* name) {
    Tracer& tracer = Tracer::instance();
    if (tracer.active()) {
      name_ = name;
      // Read before the clock: a generation that reset() has bumped comes
      // with the epoch it moved.
      generation_ = tracer.generation();
      start_ns_ = tracer.now_ns();
      depth_ = depth_counter()++;
    }
  }

  ~Span() {
    if (name_ != nullptr) {
      Tracer& tracer = Tracer::instance();
      --depth_counter();
      tracer.record(name_, start_ns_, tracer.now_ns() - start_ns_, depth_,
                    generation_);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static std::uint32_t& depth_counter() {
    thread_local std::uint32_t depth = 0;
    return depth;
  }

  const char* name_ = nullptr;  // null => tracer was disabled at entry
  std::uint64_t generation_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
};
#else
class Span {
 public:
  explicit Span(const char* /*name*/) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};
#endif

#define GPUMINE_SPAN_CONCAT_IMPL(a, b) a##b
#define GPUMINE_SPAN_CONCAT(a, b) GPUMINE_SPAN_CONCAT_IMPL(a, b)
/// Declares an anonymous RAII span for the rest of the enclosing scope.
#define GPUMINE_SPAN(name) \
  ::gpumine::Span GPUMINE_SPAN_CONCAT(gpumine_trace_span_, __LINE__)(name)

}  // namespace gpumine
