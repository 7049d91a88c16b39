// Work-stealing thread pool behind every multi-threaded stage and the
// server's connection workers.
//
// The compute stages (CSV chunks, binning, encoding, FP-Growth, rule
// generation and the query engine's build) all run on
// ThreadPool::shared(width): one pool per width, started on first use and
// kept until the process exits. A command asks for one width, so it runs
// one compute pool, and no stage pays for starting or joining threads.
// The free parallel_for(width, n, fn) runs inline at width 1 and on that
// shared pool otherwise. serve::Server builds a pool of its own, because
// its workers block in recv() and compute tasks must never queue behind
// them.
//
// Each worker owns a Chase–Lev-style deque (owner pushes and pops at the
// bottom, LIFO; thieves take from the top, FIFO), guarded by a per-deque
// mutex — contention is a single uncontended lock in the common case, and
// the locking keeps the scheduler trivially ThreadSanitizer-clean. Idle
// workers steal from a randomized victim order, so one heavy recursive
// mining task no longer serializes the pool the way the old single
// locked queue did.
//
// TaskGroup is the structured-parallelism primitive: spawn subtasks with
// run(), then wait(). A thread blocked in wait() does not sleep — it
// *helps*, draining its own deque and stealing from others until the
// group's count reaches zero. That makes nested parallelism (a task that
// spawns and waits on subtasks, arbitrarily deep) deadlock-free even on a
// one-worker pool. Exceptions thrown by subtasks are captured; wait()
// rethrows the first one only after every task in the group has finished,
// so no captured reference can dangle. A task counts as finished only
// after its worker has destroyed its captures and recorded its span and
// busy time: the pool outlives every group, so once wait() returns it
// must hold nothing more of the group.
//
// The pool keeps lightweight counters (tasks spawned/stolen, per-worker
// busy time, peak deque length). take_metrics() reads and zeroes them, so
// a miner that calls it before and after its run reports that run alone,
// on a pool that earlier stages and runs used too.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/trace.hpp"

namespace gpumine {

/// The pool's scheduling counters since the last take_metrics().
struct SchedulerMetrics {
  std::uint64_t tasks_spawned = 0;
  std::uint64_t tasks_stolen = 0;   // executed by a thread that did not enqueue them
  std::size_t peak_queue_length = 0;  // max length of any single worker deque
  std::vector<double> worker_busy_seconds;  // task execution time per worker
};

/// `width`, with 0 read as std::thread::hardware_concurrency() (at least 1).
[[nodiscard]] inline std::size_t pool_width(std::size_t width) {
  if (width != 0) return width;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// How many pieces to cut `n` items into for parallel_for at `width`: one
/// at width 1, otherwise four per worker, so stealing can even out pieces
/// of uneven cost. Never more than `n`, never 0.
[[nodiscard]] inline std::size_t parallel_chunks(std::size_t width,
                                                 std::size_t n) {
  width = pool_width(width);
  return std::max<std::size_t>(1, std::min(n, width == 1 ? 1 : width * 4));
}

class ThreadPool {
 public:
  /// `num_threads == 0` selects pool_width(0). The pool starts immediately
  /// and joins in the destructor.
  explicit ThreadPool(std::size_t num_threads = 0) {
    num_threads = pool_width(num_threads);
    queues_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
      queues_.push_back(std::make_unique<WorkerQueue>());
    }
    busy_ns_ = std::vector<std::atomic<std::uint64_t>>(num_threads);
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  /// The process's compute pool of pool_width(width) workers: started by
  /// the first call for that width and never destroyed, so no exit-time
  /// join runs after statics its workers use (the tracer) are gone.
  static ThreadPool& shared(std::size_t width) {
    struct Registry {
      std::mutex mutex;
      std::map<std::size_t, ThreadPool> pools;
    };
    static Registry* const registry = new Registry;
    width = pool_width(width);
    const std::lock_guard lock(registry->mutex);
    return registry->pools.try_emplace(width, width).first->second;
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    stopping_.store(true, std::memory_order_release);
    {
      std::lock_guard lock(sleep_mutex_);
    }
    sleep_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Structured fork/join over the pool. run() spawns a subtask; wait()
  /// drains the pool (executing any available task, this group's or not)
  /// until every task of *this* group has finished, then rethrows the
  /// first captured exception, if any. Safe to use from inside a worker.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Blocks (helping) until outstanding tasks finish; never throws.
    ~TaskGroup() { help_until_done(); }

    template <typename F>
    void run(F&& fn) {
      // Shared-ptr wrapper keeps move-only captures (task-owned FP-trees)
      // inside the copyable std::function the deques store.
      auto owned = std::make_shared<std::decay_t<F>>(std::forward<F>(fn));
      pending_.fetch_add(1, std::memory_order_acq_rel);
      pool_.push_task(
          [this, owned] {
            try {
              (*owned)();
            } catch (...) {
              note_exception(std::current_exception());
            }
          },
          this);
    }

    /// Records an exception to be rethrown by wait(); first one wins.
    /// Used by parallel_for when the calling thread's own slice throws.
    void note_exception(std::exception_ptr error) {
      std::lock_guard lock(error_mutex_);
      if (!error_) error_ = std::move(error);
    }

    void wait() {
      help_until_done();
      std::exception_ptr error;
      {
        std::lock_guard lock(error_mutex_);
        std::swap(error, error_);
      }
      if (error) std::rethrow_exception(error);
    }

   private:
    friend class ThreadPool;

    void help_until_done() {
      int idle_spins = 0;
      while (pending_.load(std::memory_order_acquire) > 0) {
        if (pool_.run_one_task()) {
          idle_spins = 0;
        } else if (++idle_spins < 64) {
          std::this_thread::yield();
        } else {
          // Group tasks are in flight on other workers; nothing to help
          // with right now. Back off instead of burning the core.
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
    }

    ThreadPool& pool_;
    std::atomic<std::size_t> pending_{0};
    std::mutex error_mutex_;
    std::exception_ptr error_;
  };

  /// Submits a detached nullary callable; returns a future for its result.
  /// Note: the future does NOT block in its destructor — join explicitly
  /// (get/wait) or use a TaskGroup for structured lifetimes.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    push_task([task]() mutable { (*task)(); });
    return fut;
  }

  /// Runs `fn(i)` for i in [0, n) across the pool and blocks until done.
  /// The calling thread participates (helping and stealing), so nesting
  /// parallel_for inside a worker cannot deadlock. Exception-safe: if any
  /// iteration throws — including fn(0) on the calling thread — every
  /// outstanding iteration still finishes before the first exception
  /// propagates, so references captured by the tasks never dangle.
  template <typename F>
  void parallel_for(std::size_t n, F&& fn) {
    if (n == 0) return;
    TaskGroup group(*this);
    for (std::size_t i = 1; i < n; ++i) {
      group.run([&fn, i] { fn(i); });
    }
    try {
      fn(0);
    } catch (...) {
      group.note_exception(std::current_exception());
    }
    group.wait();
  }

  /// Reads the counters and zeroes them.
  [[nodiscard]] SchedulerMetrics take_metrics() {
    SchedulerMetrics out;
    out.tasks_spawned = tasks_spawned_.exchange(0, std::memory_order_relaxed);
    out.tasks_stolen = tasks_stolen_.exchange(0, std::memory_order_relaxed);
    out.peak_queue_length = peak_queue_.exchange(0, std::memory_order_relaxed);
    out.worker_busy_seconds.reserve(busy_ns_.size());
    for (auto& ns : busy_ns_) {
      out.worker_busy_seconds.push_back(
          static_cast<double>(ns.exchange(0, std::memory_order_relaxed)) *
          1e-9);
    }
    return out;
  }

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;  // told once fn and its accounting are done
  };

  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  // Which pool (if any) the current thread is a worker of, and its index.
  struct WorkerSlot {
    ThreadPool* pool = nullptr;
    std::size_t index = 0;
  };
  static WorkerSlot& tls_slot() {
    static thread_local WorkerSlot slot;
    return slot;
  }

  static constexpr std::size_t kNotWorker = static_cast<std::size_t>(-1);

  [[nodiscard]] std::size_t current_worker_index() const {
    const WorkerSlot& slot = tls_slot();
    return slot.pool == this ? slot.index : kNotWorker;
  }

  void push_task(std::function<void()> fn, TaskGroup* group = nullptr) {
    tasks_spawned_.fetch_add(1, std::memory_order_relaxed);
    std::size_t target = current_worker_index();
    if (target == kNotWorker) {
      // External submitter: scatter round-robin so work spreads even
      // before any stealing happens.
      target = next_queue_.fetch_add(1, std::memory_order_relaxed) %
               queues_.size();
    }
    WorkerQueue& q = *queues_[target];
    std::size_t depth = 0;
    {
      std::lock_guard lock(q.mutex);
      q.tasks.push_back({std::move(fn), group});
      depth = q.tasks.size();
    }
    update_peak(depth);
    num_tasks_.fetch_add(1, std::memory_order_release);
    {
      std::lock_guard lock(sleep_mutex_);
    }
    sleep_cv_.notify_one();
  }

  void update_peak(std::size_t depth) {
    std::size_t seen = peak_queue_.load(std::memory_order_relaxed);
    while (depth > seen &&
           !peak_queue_.compare_exchange_weak(seen, depth,
                                              std::memory_order_relaxed)) {
    }
  }

  // Takes one task: own deque bottom first (LIFO keeps the working set
  // hot), then steal from the top of victims in randomized order. Sets
  // `stolen` when the task came from another worker's deque.
  [[nodiscard]] Task try_acquire(bool& stolen) {
    stolen = false;
    const std::size_t self = current_worker_index();
    if (self != kNotWorker) {
      WorkerQueue& q = *queues_[self];
      std::lock_guard lock(q.mutex);
      if (!q.tasks.empty()) {
        auto task = std::move(q.tasks.back());
        q.tasks.pop_back();
        num_tasks_.fetch_sub(1, std::memory_order_acq_rel);
        return task;
      }
    }
    const std::size_t n = queues_.size();
    const std::size_t start = steal_seed() % n;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t victim = (start + k) % n;
      if (victim == self) continue;
      WorkerQueue& q = *queues_[victim];
      std::lock_guard lock(q.mutex);
      if (!q.tasks.empty()) {
        auto task = std::move(q.tasks.front());
        q.tasks.pop_front();
        num_tasks_.fetch_sub(1, std::memory_order_acq_rel);
        tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
        stolen = true;
        return task;
      }
    }
    return {};
  }

  // Per-thread xorshift for randomized victim selection; no locking, no
  // global RNG state shared between threads.
  static std::uint32_t steal_seed() {
    static thread_local std::uint32_t state = static_cast<std::uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1u);
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    return state;
  }

  // Executes one available task on the calling thread (worker or helper).
  // Returns false if no task was available anywhere.
  bool run_one_task() {
    bool stolen = false;
    Task task = try_acquire(stolen);
    if (!task.fn) return false;
    {
      Span span(stolen ? "pool/task_stolen" : "pool/task");
      // Only the outermost task on a worker is timed: tasks executed while
      // helping inside a nested wait() are already inside the outer span.
      static thread_local int timing_depth = 0;
      const std::size_t self = current_worker_index();
      if (self != kNotWorker && timing_depth == 0) {
        ++timing_depth;
        const auto begin = std::chrono::steady_clock::now();
        task.fn();
        const auto busy = std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - begin);
        --timing_depth;
        busy_ns_[self].fetch_add(static_cast<std::uint64_t>(busy.count()),
                                 std::memory_order_relaxed);
      } else {
        task.fn();
      }
    }
    // Drop the task's captures (a mining task owns its FP-tree, whose
    // arena goes back to the run's ArenaPool) before its group can see
    // it finished and free what they point into.
    task.fn = nullptr;
    if (task.group != nullptr) {
      task.group->pending_.fetch_sub(1, std::memory_order_acq_rel);
    }
    return true;
  }

  void worker_loop(std::size_t index) {
    WorkerSlot& slot = tls_slot();
    slot = {this, index};
    for (;;) {
      if (run_one_task()) continue;
      if (stopping_.load(std::memory_order_acquire) &&
          num_tasks_.load(std::memory_order_acquire) == 0) {
        break;
      }
      GPUMINE_SPAN("pool/idle");
      std::unique_lock lock(sleep_mutex_);
      sleep_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) ||
               num_tasks_.load(std::memory_order_acquire) > 0;
      });
    }
    slot = {};
  }

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::vector<std::atomic<std::uint64_t>> busy_ns_;
  std::atomic<std::size_t> num_tasks_{0};
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<bool> stopping_{false};
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;

  std::atomic<std::uint64_t> tasks_spawned_{0};
  std::atomic<std::uint64_t> tasks_stolen_{0};
  std::atomic<std::size_t> peak_queue_{0};
};

/// Runs `fn(i)` for i in [0, n): inline, in index order, at width 1, and
/// otherwise on ThreadPool::shared(width) (0 = hardware concurrency).
template <typename F>
void parallel_for(std::size_t width, std::size_t n, F&& fn) {
  if (width == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool::shared(width).parallel_for(n, std::forward<F>(fn));
}

}  // namespace gpumine
