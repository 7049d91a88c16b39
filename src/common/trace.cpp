#include "common/trace.hpp"

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/arena.hpp"
#include "common/json.hpp"

namespace gpumine {

std::uint64_t monotonic_ns() {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

namespace {

// Events per chunk of the trace store: the owning thread takes the chunk
// mutex once per kChunkEvents records; everything in between is plain
// stores and one release store of the counter.
constexpr std::size_t kChunkEvents = 4096;
constexpr std::size_t kRingSpans = Tracer::kRingSpans;

// One ring slot. The fields are atomics so that a dump on another thread,
// or in a signal handler, may read a slot while its owner overwrites it;
// the ring count tells the reader afterwards whether that happened.
struct RingSlot {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<std::uint64_t> duration_ns{0};
  std::atomic<std::uint32_t> depth{0};
};

struct ThreadBuffer {
  // Registry fields: `next` is set before the buffer is published and
  // never changes, so readers walk the list without a lock; the others
  // are guarded by the registry mutex (`generation` and `tid` are atomic
  // for lock-free readers). Readers skip a buffer whose generation is not
  // the tracer's: it holds spans from before the latest reset().
  ThreadBuffer* next = nullptr;
  ThreadBuffer* next_free = nullptr;
  bool owned = false;
  std::atomic<std::uint64_t> generation{0};
  std::atomic<std::uint32_t> tid{0};

  // Trace store. `count` is the publication point; the chunk directory
  // and arena are guarded for the (cold) append of a new chunk and for
  // reader traversal.
  std::atomic<std::uint64_t> count{0};
  TraceEvent* write_chunk = nullptr;
  std::uint64_t write_chunk_base = 0;
  mutable std::mutex chunk_mutex;
  std::vector<TraceEvent*> chunks;
  Arena arena{kChunkEvents * sizeof(TraceEvent)};

  // Ring store: span i lives in ring[i % kRingSpans]. Spans before
  // `owner_first` were recorded by a thread that has since exited.
  std::atomic<std::uint64_t> ring_count{0};
  std::uint64_t owner_first = 0;
  std::array<RingSlot, kRingSpans> ring;

  void record_trace(const char* name, std::uint64_t start_ns,
                    std::uint64_t duration_ns, std::uint32_t depth) {
    const std::uint64_t n = count.load(std::memory_order_relaxed);
    if (write_chunk == nullptr || n - write_chunk_base >= kChunkEvents) {
      const std::lock_guard<std::mutex> lock(chunk_mutex);
      write_chunk = arena.allocate_array<TraceEvent>(kChunkEvents).data();
      write_chunk_base = n;
      chunks.push_back(write_chunk);
    }
    TraceEvent& ev = write_chunk[n - write_chunk_base];
    ev.name = name;
    ev.start_ns = start_ns;
    ev.duration_ns = duration_ns;
    ev.tid = tid.load(std::memory_order_relaxed);
    ev.depth = depth;
    count.store(n + 1, std::memory_order_release);
  }

  void record_ring(const char* name, std::uint64_t start_ns,
                   std::uint64_t duration_ns, std::uint32_t depth) {
    const std::uint64_t n = ring_count.load(std::memory_order_relaxed);
    RingSlot& slot = ring[n % kRingSpans];
    // Release stores order the count published for span n - 1 before
    // them: a reader that sees any of them then reads a count of at
    // least n.
    slot.name.store(name, std::memory_order_release);
    slot.start_ns.store(start_ns, std::memory_order_release);
    slot.duration_ns.store(duration_ns, std::memory_order_release);
    slot.depth.store(depth, std::memory_order_release);
    ring_count.store(n + 1, std::memory_order_release);
  }

  void drain_into(std::vector<TraceEvent>& out) const {
    const std::lock_guard<std::mutex> lock(chunk_mutex);
    const std::uint64_t n = count.load(std::memory_order_acquire);
    for (std::uint64_t i = 0; i < n; ++i) {
      out.push_back(chunks[i / kChunkEvents][i % kChunkEvents]);
    }
  }

  /// Calls visit(event) for each retained ring span from index `first`
  /// on, oldest first, skipping a slot its owner overwrote while it was
  /// read. Async-signal-safe: atomics only, no lock.
  template <typename Visit>
  void visit_ring(std::uint64_t first, Visit&& visit) const {
    const std::uint64_t end = ring_count.load(std::memory_order_acquire);
    first = std::max(first, end > kRingSpans ? end - kRingSpans : 0);
    for (std::uint64_t i = first; i < end; ++i) {
      const RingSlot& slot = ring[i % kRingSpans];
      TraceEvent ev;
      ev.name = slot.name.load(std::memory_order_acquire);
      ev.start_ns = slot.start_ns.load(std::memory_order_acquire);
      ev.duration_ns = slot.duration_ns.load(std::memory_order_acquire);
      ev.tid = tid.load(std::memory_order_relaxed);
      ev.depth = slot.depth.load(std::memory_order_acquire);
      // The owner starts span i + kRingSpans, which reuses this slot,
      // only after publishing that count.
      if (ring_count.load(std::memory_order_relaxed) >= i + kRingSpans) {
        continue;
      }
      visit(ev);
    }
  }

  /// Empties both stores. Only a buffer's owner, or the registry holding
  /// its mutex for a buffer no thread owns, calls this: no record races it.
  void clear() {
    const std::lock_guard<std::mutex> lock(chunk_mutex);
    count.store(0, std::memory_order_relaxed);
    write_chunk = nullptr;
    chunks.clear();
    arena.reset();
    ring_count.store(0, std::memory_order_relaxed);
    owner_first = 0;
  }
};

// Every buffer ever made, newest first. Buffers are never freed, so the
// list only grows and readers (collect(), the crash dump) walk it without
// a lock. Constant-initialized and never destroyed, so any thread, and
// the crash handler, can use it at any point of the process's life.
struct Registry {
  std::mutex mutex;  // registration, hand-back and reset()
  std::atomic<ThreadBuffer*> head{nullptr};
  ThreadBuffer* free_head = nullptr;  // buffers waiting for a new thread
  std::atomic<std::uint32_t> next_tid{0};
};
static_assert(std::is_trivially_destructible_v<Registry>);
Registry g_registry;

bool current(const ThreadBuffer& buffer) {
  return buffer.generation.load(std::memory_order_acquire) ==
         Tracer::instance().generation();
}

// The calling thread's buffer, handed to the next new thread when this
// one exits.
struct ThreadSlot {
  ThreadBuffer* buffer = nullptr;

  ThreadSlot() = default;
  ThreadSlot(const ThreadSlot&) = delete;
  ThreadSlot& operator=(const ThreadSlot&) = delete;
  ~ThreadSlot() {
    if (buffer == nullptr) return;
    const std::lock_guard<std::mutex> lock(g_registry.mutex);
    buffer->owned = false;
    if (!current(*buffer)) buffer->clear();
    // A buffer that still holds trace events keeps them, and its tid, to
    // itself until reset() empties it.
    if (buffer->count.load(std::memory_order_relaxed) == 0) {
      buffer->next_free = g_registry.free_head;
      g_registry.free_head = buffer;
    }
  }
};

ThreadSlot& thread_slot() {
  thread_local ThreadSlot slot;
  return slot;
}

// The one span registration: a thread takes a handed-back buffer, or a
// new one, on its first record, and on its first record after each
// reset() empties its buffer and takes a fresh tid.
ThreadBuffer& buffer_for_this_thread(std::uint64_t generation) {
  ThreadSlot& slot = thread_slot();
  if (slot.buffer != nullptr &&
      slot.buffer->generation.load(std::memory_order_relaxed) == generation) {
    return *slot.buffer;
  }
  const std::lock_guard<std::mutex> lock(g_registry.mutex);
  if (slot.buffer == nullptr) {
    ThreadBuffer* buffer = g_registry.free_head;
    if (buffer != nullptr) {
      g_registry.free_head = buffer->next_free;
    } else {
      buffer = new ThreadBuffer;
      buffer->next = g_registry.head.load(std::memory_order_relaxed);
      g_registry.head.store(buffer, std::memory_order_release);
    }
    buffer->owned = true;
    buffer->owner_first = buffer->ring_count.load(std::memory_order_relaxed);
    slot.buffer = buffer;
  }
  if (slot.buffer->generation.load(std::memory_order_relaxed) != generation) {
    slot.buffer->clear();
    slot.buffer->tid.store(
        g_registry.next_tid.fetch_add(1, std::memory_order_relaxed),
        std::memory_order_relaxed);
    slot.buffer->generation.store(generation, std::memory_order_release);
  }
  return *slot.buffer;
}

// Chrome-trace text through a fixed buffer straight to a file descriptor.
// It formats integers itself and calls only write(2), never the
// allocator or stdio, so the crash handler can use it. `--trace` files
// and crash dumps both write their events through event().
class EventWriter {
 public:
  explicit EventWriter(int fd) : fd_(fd) {}

  void push_back(char c) {
    if (size_ == sizeof(buf_)) flush();
    buf_[size_++] = c;
  }

  void append(std::string_view text) {
    for (const char c : text) push_back(c);
  }

  void append_u64(std::uint64_t value) {
    char digits[20];
    int n = 0;
    do {
      digits[n++] = static_cast<char>('0' + value % 10);
      value /= 10;
    } while (value != 0);
    while (n > 0) push_back(digits[--n]);
  }

  /// Nanoseconds as microseconds with exactly three decimals.
  void append_us(std::uint64_t ns) {
    append_u64(ns / 1000);
    push_back('.');
    const std::uint64_t frac = ns % 1000;
    push_back(static_cast<char>('0' + frac / 100));
    push_back(static_cast<char>('0' + frac / 10 % 10));
    push_back(static_cast<char>('0' + frac % 10));
  }

  /// One complete ("X") event, comma-separated from the previous one.
  void event(const TraceEvent& ev) {
    append(events_++ == 0 ? "\n{\"name\":\"" : ",\n{\"name\":\"");
    append_json_escaped(*this, ev.name);
    append("\",\"ph\":\"X\",\"ts\":");
    append_us(ev.start_ns);
    append(",\"dur\":");
    append_us(ev.duration_ns);
    append(",\"pid\":1,\"tid\":");
    append_u64(ev.tid);
    append(",\"args\":{\"depth\":");
    append_u64(ev.depth);
    append("}}");
  }

  /// Writes out the buffered bytes; false once any write has failed.
  bool flush() {
    for (std::size_t done = 0; done < size_ && !failed_;) {
      const ssize_t n = ::write(fd_, buf_ + done, size_ - done);
      if (n <= 0) {
        failed_ = true;
      } else {
        done += static_cast<std::size_t>(n);
      }
    }
    size_ = 0;
    return !failed_;
  }

 private:
  int fd_;
  char buf_[4096];
  std::size_t size_ = 0;
  std::size_t events_ = 0;
  bool failed_ = false;
};

int open_for_writing(const std::string& path) {
  return ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
}

}  // namespace

Tracer::Tracer() : epoch_ns_(monotonic_ns()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable() {
  sinks_.fetch_or(kSinkTrace, std::memory_order_relaxed);
}
void Tracer::disable() {
  sinks_.fetch_and(~kSinkTrace, std::memory_order_relaxed);
}

void Tracer::set_ring_recording(bool on) {
  if (on) {
    sinks_.fetch_or(kSinkRing, std::memory_order_relaxed);
  } else {
    sinks_.fetch_and(~kSinkRing, std::memory_order_relaxed);
  }
}

void Tracer::reset() {
  const std::lock_guard<std::mutex> lock(g_registry.mutex);
  // Owned buffers are left to their threads, which may be recording.
  g_registry.free_head = nullptr;
  for (ThreadBuffer* b = g_registry.head.load(std::memory_order_relaxed);
       b != nullptr; b = b->next) {
    if (!b->owned) {
      b->clear();
      b->next_free = g_registry.free_head;
      g_registry.free_head = b;
    }
  }
  g_registry.next_tid.store(0, std::memory_order_relaxed);
  // The epoch moves first: a span that sees the new generation also sees
  // the new epoch.
  epoch_ns_.store(monotonic_ns(), std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
}

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t duration_ns, std::uint32_t depth,
                    std::uint64_t generation) {
  const std::uint32_t sinks = sinks_.load(std::memory_order_relaxed);
  if (sinks == 0) return;
  ThreadBuffer& buffer = buffer_for_this_thread(this->generation());
  if (buffer.generation.load(std::memory_order_relaxed) != generation) return;
  if ((sinks & kSinkRing) != 0) {
    buffer.record_ring(name, start_ns, duration_ns, depth);
  }
  if ((sinks & kSinkTrace) != 0) {
    buffer.record_trace(name, start_ns, duration_ns, depth);
  }
}

std::vector<TraceEvent> Tracer::collect() const {
  std::vector<TraceEvent> events;
  for (const ThreadBuffer* b = g_registry.head.load(std::memory_order_acquire);
       b != nullptr; b = b->next) {
    if (current(*b)) b->drain_into(events);
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.duration_ns > b.duration_ns;  // parents first
            });
  return events;
}

std::vector<TraceEvent> Tracer::thread_spans_since(
    std::uint64_t since_ns) const {
  std::vector<TraceEvent> spans;
  const ThreadSlot& slot = thread_slot();
  if (slot.buffer == nullptr || !current(*slot.buffer)) return spans;
  slot.buffer->visit_ring(slot.buffer->owner_first,
                          [&](const TraceEvent& ev) {
                            if (ev.start_ns >= since_ns) spans.push_back(ev);
                          });
  return spans;
}

std::vector<SpanSummary> Tracer::summarize() const {
  std::map<std::string, SpanSummary> by_name;
  for (const TraceEvent& ev : collect()) {
    SpanSummary& s = by_name[ev.name];
    if (s.count == 0) s.name = ev.name;
    ++s.count;
    s.total_ns += ev.duration_ns;
    s.max_ns = std::max(s.max_ns, ev.duration_ns);
  }
  std::vector<SpanSummary> out;
  out.reserve(by_name.size());
  for (auto& [name, summary] : by_name) out.push_back(std::move(summary));
  return out;  // std::map iteration => already name-sorted
}

namespace {

double ns_to_ms(std::uint64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

std::string format_ms(double ms) {
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%.3f", ms);
  return std::string(buf.data());
}

}  // namespace

std::string Tracer::summary_table() const {
  const std::vector<SpanSummary> rows = summarize();
  std::size_t name_width = 4;  // "span"
  for (const SpanSummary& r : rows) {
    name_width = std::max(name_width, r.name.size());
  }
  std::ostringstream out;
  out << "  " << std::string(name_width - 4, ' ') << "span"
      << "      count   total_ms     max_ms\n";
  for (const SpanSummary& r : rows) {
    const std::string total = format_ms(ns_to_ms(r.total_ns));
    const std::string max = format_ms(ns_to_ms(r.max_ns));
    out << "  " << std::string(name_width - r.name.size(), ' ') << r.name;
    std::array<char, 64> buf{};
    std::snprintf(buf.data(), buf.size(), " %10llu %10s %10s\n",
                  static_cast<unsigned long long>(r.count), total.c_str(),
                  max.c_str());
    out << buf.data();
  }
  return out.str();
}

std::string Tracer::summary_json() const {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const SpanSummary& r : summarize()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << r.name << "\",\"count\":" << r.count
        << ",\"total_ms\":" << format_ms(ns_to_ms(r.total_ns))
        << ",\"max_ms\":" << format_ms(ns_to_ms(r.max_ns)) << "}";
  }
  out << "]";
  return out.str();
}

Result<bool> Tracer::export_chrome_trace_file(const std::string& path) const {
  const int fd = open_for_writing(path);
  if (fd < 0) {
    return Error{path, "cannot open trace output file for writing"};
  }
  EventWriter out(fd);
  out.append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (const TraceEvent& ev : collect()) out.event(ev);
  out.append("\n]}\n");
  const bool written = out.flush();
  if (::close(fd) != 0 || !written) {
    return Error{path, "error writing trace output file"};
  }
  return true;
}

// ---------------------------------------------------------------------------
// Crash dumps: the pre-opened fd, the signal handlers and the log ring.

namespace {

constexpr std::size_t kLogLines = 128;
// Longer lines are dropped and counted, never truncated into invalid JSON.
// A slow-query line with its span subtree runs to about 500 bytes.
constexpr std::size_t kLogLineBytes = 1024;

struct LogSlot {
  // 0 while (re)writing; the final byte length once published.
  std::atomic<std::uint32_t> len{0};
  char data[kLogLineBytes];
};

LogSlot g_log[kLogLines];
std::atomic<std::uint64_t> g_log_count{0};
std::atomic<std::uint64_t> g_log_dropped{0};

std::atomic<int> g_dump_fd{-1};
std::atomic<bool> g_armed{false};
std::atomic<bool> g_dumping{false};
struct sigaction g_old_segv, g_old_abrt, g_old_bus;

/// The whole dump document. Async-signal-safe (see crash_handler).
void write_dump(int fd, int sig) {
  EventWriter out(fd);
  out.append("{\"displayTimeUnit\":\"ms\",\"crash_signal\":");
  out.append_u64(static_cast<std::uint64_t>(sig));
  out.append(",\"traceEvents\":[");
  for (const ThreadBuffer* b = g_registry.head.load(std::memory_order_acquire);
       b != nullptr; b = b->next) {
    if (current(*b)) {
      b->visit_ring(0, [&out](const TraceEvent& ev) { out.event(ev); });
    }
  }
  // A zero-length marker, stamped after the rings were read so that no
  // span in the dump ends after it, on a tid of its own. It also keeps
  // traceEvents non-empty.
  TraceEvent marker;
  marker.name = "flight/dump";
  marker.start_ns = Tracer::instance().now_ns();
  marker.tid = g_registry.next_tid.load(std::memory_order_relaxed);
  out.event(marker);
  out.append("\n],\"log\":[");

  const std::uint64_t log_count = g_log_count.load(std::memory_order_acquire);
  bool first = true;
  for (std::uint64_t i = log_count > kLogLines ? log_count - kLogLines : 0;
       i < log_count; ++i) {
    const LogSlot& slot = g_log[i % kLogLines];
    const std::uint32_t len = slot.len.load(std::memory_order_acquire);
    if (len == 0 || len > kLogLineBytes) continue;
    if (slot.data[0] != '{' || slot.data[len - 1] != '}') continue;
    out.append(first ? "\n" : ",\n");
    first = false;
    out.append(std::string_view(slot.data, len));
  }
  const std::uint64_t dropped = g_log_dropped.load(std::memory_order_relaxed);
  if (dropped != 0) {
    out.append(first ? "\n" : ",\n");
    out.append("{\"flight_dropped_logs\":");
    out.append_u64(dropped);
    out.push_back('}');
  }
  out.append("\n]}\n");
  out.flush();
}

// Async-signal-safe: the handler and everything it calls use only
// write(2), fsync(2), clock_gettime(2), sigaction(2) and raise(3). They
// read only atomics and memory that is never freed (the buffer list and
// its rings, the log ring, string-literal span names, and the Tracer,
// which arm_crash_dump() constructed before installing the handler), and
// take no lock.
void crash_handler(int sig) {
  // One dump per process: a fault inside the handler (or a second
  // signal on another thread) must not recurse into the writer.
  if (!g_dumping.exchange(true, std::memory_order_acq_rel)) {
    const int fd = g_dump_fd.load(std::memory_order_acquire);
    if (fd >= 0) {
      write_dump(fd, sig);
      ::fsync(fd);
    }
  }
  struct sigaction dfl;
  std::memset(&dfl, 0, sizeof(dfl));
  dfl.sa_handler = SIG_DFL;
  ::sigaction(sig, &dfl, nullptr);
  ::raise(sig);
}

}  // namespace

Result<bool> arm_crash_dump(const std::string& path) {
  disarm_crash_dump();
  const int fd = open_for_writing(path);
  if (fd < 0) {
    return Error{path, "cannot open flight-recorder dump file"};
  }
  // Rings on first: this also constructs the Tracer the handler reads.
  Tracer::instance().set_ring_recording(true);
  g_dump_fd.store(fd, std::memory_order_release);
  g_dumping.store(false, std::memory_order_relaxed);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = crash_handler;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGSEGV, &sa, &g_old_segv);
  ::sigaction(SIGABRT, &sa, &g_old_abrt);
  ::sigaction(SIGBUS, &sa, &g_old_bus);
  g_armed.store(true, std::memory_order_release);
  return true;
}

void disarm_crash_dump() {
  if (g_armed.exchange(false, std::memory_order_acq_rel)) {
    ::sigaction(SIGSEGV, &g_old_segv, nullptr);
    ::sigaction(SIGABRT, &g_old_abrt, nullptr);
    ::sigaction(SIGBUS, &g_old_bus, nullptr);
  }
  const int fd = g_dump_fd.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

Result<bool> write_flight_dump(const std::string& path) {
  const int fd = open_for_writing(path);
  if (fd < 0) {
    return Error{path, "cannot open flight-recorder dump file"};
  }
  write_dump(fd, 0);
  if (::close(fd) != 0) {
    return Error{path, "error writing flight-recorder dump"};
  }
  return true;
}

void record_log_line(std::string_view line) {
  if (line.empty() || line.size() > kLogLineBytes) {
    g_log_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t n = g_log_count.fetch_add(1, std::memory_order_relaxed);
  LogSlot& slot = g_log[n % kLogLines];
  slot.len.store(0, std::memory_order_release);
  std::memcpy(slot.data, line.data(), line.size());
  slot.len.store(static_cast<std::uint32_t>(line.size()),
                 std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Exporter self-check: a minimal recursive-descent JSON parser (numbers,
// strings, bools, null, arrays, objects) plus structural validation of
// the trace-event document. Self-contained so the check needs no
// third-party JSON dependency.

namespace {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> parse() {
    JsonValue v;
    if (!parse_value(v)) return Error{locus(), message_};
    skip_ws();
    if (pos_ != text_.size()) return Error{locus(), "trailing characters"};
    return v;
  }

 private:
  [[nodiscard]] std::string locus() const {
    return "json offset " + std::to_string(pos_);
  }

  bool fail(const std::string& message) {
    if (message_.empty()) message_ = message;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.string);
    }
    if (c == 't' || c == 'f') return parse_keyword(out);
    if (c == 'n') return parse_keyword(out);
    return parse_number(out);
  }

  bool parse_keyword(JsonValue& out) {
    const auto match = [&](const char* word) {
      const std::size_t len = std::string(word).size();
      if (text_.compare(pos_, len, word) != 0) return false;
      pos_ += len;
      return true;
    };
    if (match("true")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return true;
    }
    if (match("false")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return true;
    }
    if (match("null")) {
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    return fail("invalid literal");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      digits = true;
      ++pos_;
    }
    if (!digits) return fail("invalid number");
    try {
      out.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      return fail("invalid number");
    }
    out.kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool parse_string(std::string& out) {
    if (text_[pos_] != '"') return fail("expected string");
    ++pos_;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return fail("unterminated escape");
        const char esc = text_[pos_];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) return fail("short \\u escape");
            pos_ += 4;   // validated loosely; exporter only emits ASCII
            c = '?';
            break;
          }
          default: return fail("unknown escape");
        }
      }
      out.push_back(c);
      ++pos_;
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue element;
      if (!parse_value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || !parse_string(key)) {
        return fail("expected object key");
      }
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':'");
      }
      ++pos_;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string message_;
};

}  // namespace

Result<std::size_t> validate_chrome_trace_text(const std::string& text) {
  Result<JsonValue> parsed = JsonParser(text).parse();
  if (!parsed.ok()) return parsed.error();
  const JsonValue& doc = parsed.value();
  if (doc.kind != JsonValue::Kind::kObject) {
    return Error{"trace", "top-level value is not an object"};
  }
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    return Error{"trace", "missing traceEvents array"};
  }
  if (events->array.empty()) {
    return Error{"trace", "traceEvents is empty (no spans recorded)"};
  }
  // Interval per thread to check well-formed nesting.
  struct Interval {
    double start;
    double end;
  };
  std::map<double, std::vector<Interval>> by_tid;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& ev = events->array[i];
    const std::string at = "traceEvents[" + std::to_string(i) + "]";
    if (ev.kind != JsonValue::Kind::kObject) {
      return Error{at, "event is not an object"};
    }
    const JsonValue* name = ev.find("name");
    const JsonValue* ph = ev.find("ph");
    const JsonValue* ts = ev.find("ts");
    const JsonValue* dur = ev.find("dur");
    const JsonValue* pid = ev.find("pid");
    const JsonValue* tid = ev.find("tid");
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        name->string.empty()) {
      return Error{at, "missing or empty name"};
    }
    if (ph == nullptr || ph->kind != JsonValue::Kind::kString ||
        ph->string != "X") {
      return Error{at, "phase is not a complete event (\"X\")"};
    }
    const std::array<std::pair<const JsonValue*, const char*>, 4> numeric{
        {{ts, "ts"}, {dur, "dur"}, {pid, "pid"}, {tid, "tid"}}};
    for (const auto& [field, label] : numeric) {
      if (field == nullptr || field->kind != JsonValue::Kind::kNumber) {
        return Error{at, std::string("missing numeric ") + label};
      }
    }
    if (ts->number < 0.0 || dur->number < 0.0) {
      return Error{at, "negative ts or dur"};
    }
    by_tid[tid->number].push_back({ts->number, ts->number + dur->number});
  }
  for (auto& [tid, intervals] : by_tid) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.end > b.end;
              });
    std::vector<Interval> stack;
    for (const Interval& iv : intervals) {
      while (!stack.empty() && iv.start >= stack.back().end) stack.pop_back();
      // Timestamps are rounded to 1ns (and exported at 1us precision), so
      // allow 2us of slack on the containment check.
      constexpr double kSlackUs = 2.0;
      if (!stack.empty() && iv.end > stack.back().end + kSlackUs) {
        return Error{"trace tid " + std::to_string(tid),
                     "spans partially overlap (not properly nested)"};
      }
      stack.push_back(iv);
    }
  }
  return events->array.size();
}

Result<std::size_t> validate_chrome_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error{path, "cannot open trace file"};
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return validate_chrome_trace_text(contents.str());
}

}  // namespace gpumine
