// Scheduler correctness: exception safety of parallel_for (the seed's
// UB regression), nested fork/join from inside workers (the old pool
// could deadlock), TaskGroup semantics, metrics sanity, and the shared
// compute pool behind the free parallel_for.
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gpumine {
namespace {

TEST(ThreadPool, ParallelForRunsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

// Regression for the seed bug: fn(0) throwing on the calling thread used
// to unwind parallel_for while workers still executed lambdas capturing
// [&fn] — a dangling reference, since packaged_task futures do not block
// on destruction. The fix waits for every outstanding task before
// propagating, so all other indices must have completed by the time the
// exception reaches the caller.
TEST(ThreadPool, ParallelForCallerThrowIsExceptionSafe) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 32;
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(kN,
                        [&](std::size_t i) {
                          if (i == 0) throw std::runtime_error("caller slice");
                          // Outlast the caller's throw so unwinding races
                          // are actually exercised.
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(1));
                          completed.fetch_add(1, std::memory_order_relaxed);
                        }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), static_cast<int>(kN - 1));
}

TEST(ThreadPool, ParallelForWorkerThrowPropagates) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.parallel_for(16,
                                 [&](std::size_t i) {
                                   if (i == 7) {
                                     throw std::runtime_error("worker slice");
                                   }
                                   completed.fetch_add(
                                       1, std::memory_order_relaxed);
                                 }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 15);
}

TEST(ThreadPool, ParallelForOnSingleThreadPoolCompletes) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 45);
}

// The old single-queue pool silently deadlocked-or-not when a worker
// blocked on futures for tasks queued behind it. With help-stealing
// wait(), nesting is safe at any depth, even on a one-worker pool.
TEST(ThreadPool, NestedParallelForInsideWorkers) {
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<int> count{0};
    pool.parallel_for(8, [&](std::size_t) {
      pool.parallel_for(8, [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(count.load(), 64) << "threads=" << threads;
  }
}

TEST(ThreadPool, DeeplyNestedTaskGroupsFromWorkers) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  // Recursive fork/join three levels deep, spawned from worker context.
  std::function<void(int)> spawn_tree = [&](int depth) {
    if (depth == 0) {
      leaves.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < 3; ++i) {
      group.run([&, depth] { spawn_tree(depth - 1); });
    }
    group.wait();
  };
  spawn_tree(3);
  EXPECT_EQ(leaves.load(), 27);
}

TEST(ThreadPool, TaskGroupWaitRethrowsFirstError) {
  ThreadPool pool(2);
  ThreadPool::TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) {
    group.run([] { throw std::runtime_error("task error"); });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(ThreadPool, TaskGroupDestructorWaitsWithoutThrowing) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  {
    ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < 16; ++i) {
      group.run([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1, std::memory_order_relaxed);
        throw std::runtime_error("swallowed by destructor");
      });
    }
    // No wait(): the destructor must block until all tasks finished and
    // must not propagate the stored exception.
  }
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, SubmitReturnsWorkingFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, MetricsCountSpawnsAndWork) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  pool.parallel_for(kTasks, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  const SchedulerMetrics m = pool.take_metrics();
  EXPECT_EQ(m.tasks_spawned, kTasks - 1);  // index 0 runs on the caller
  EXPECT_EQ(m.worker_busy_seconds.size(), 4u);
  EXPECT_LE(m.tasks_stolen, m.tasks_spawned);
  EXPECT_GE(m.peak_queue_length, 1u);

  // Taking the counters zeroes them.
  const SchedulerMetrics again = pool.take_metrics();
  EXPECT_EQ(again.tasks_spawned, 0u);
  EXPECT_EQ(again.tasks_stolen, 0u);
  EXPECT_EQ(again.peak_queue_length, 0u);
  for (const double busy : again.worker_busy_seconds) EXPECT_EQ(busy, 0.0);
}

// Tasks spawned from inside one worker land on that worker's own deque;
// the only way other workers can participate is by stealing. With many
// slow tasks from a single origin, steals are statistically certain.
TEST(ThreadPool, WorkSpawnedOnOneWorkerGetsStolen) {
  ThreadPool pool(4);
  ThreadPool::TaskGroup group(pool);
  group.run([&] {
    ThreadPool::TaskGroup inner(pool);
    for (int i = 0; i < 200; ++i) {
      inner.run(
          [] { std::this_thread::sleep_for(std::chrono::microseconds(500)); });
    }
    inner.wait();
  });
  group.wait();
  EXPECT_GT(pool.take_metrics().tasks_stolen, 0u);
}

// One pool per width for the whole process; parallel_for runs inline at
// width 1 and on that pool otherwise.
TEST(ThreadPool, SharedPoolIsOnePerWidth) {
  ThreadPool& pool = ThreadPool::shared(4);
  EXPECT_EQ(&ThreadPool::shared(4), &pool);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(&ThreadPool::shared(0), &ThreadPool::shared(pool_width(0)));

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(1, 5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  (void)pool.take_metrics();
  std::vector<std::atomic<int>> hits(64);
  parallel_for(4, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.take_metrics().tasks_spawned, hits.size() - 1);

  EXPECT_EQ(parallel_chunks(1, 100), 1u);
  EXPECT_EQ(parallel_chunks(4, 100), 16u);
  EXPECT_EQ(parallel_chunks(4, 3), 3u);
  EXPECT_EQ(parallel_chunks(4, 0), 1u);
}

}  // namespace
}  // namespace gpumine
