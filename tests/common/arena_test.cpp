// Arena / ArenaPool: bump allocation, block growth, and — the property
// the mining hot path depends on — that a recycled arena serves repeat
// allocations without drawing fresh memory from the global allocator.
#include "common/arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>

namespace gpumine {
namespace {

TEST(Arena, AllocatesDistinctAlignedWritableStorage) {
  Arena arena;
  auto bytes = arena.allocate_array<std::uint8_t>(3);
  auto words = arena.allocate_array<std::uint64_t>(4);
  ASSERT_EQ(bytes.size(), 3u);
  ASSERT_EQ(words.size(), 4u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(words.data()) %
                alignof(std::uint64_t),
            0u);
  // Writing every element catches overlap under ASan.
  std::fill(bytes.begin(), bytes.end(), std::uint8_t{0xAB});
  std::fill(words.begin(), words.end(), ~std::uint64_t{0});
  EXPECT_EQ(bytes[2], 0xAB);
  EXPECT_EQ(words[3], ~std::uint64_t{0});
  EXPECT_GE(arena.bytes_used(), 3u + 4u * sizeof(std::uint64_t));
}

TEST(Arena, GrowsPastFirstBlockAndReusesRetainedBlocksAfterReset) {
  Arena arena(/*first_block_bytes=*/64);
  (void)arena.allocate_array<std::uint8_t>(40);
  (void)arena.allocate_array<std::uint8_t>(200);  // exceeds block 0
  const std::size_t reserved = arena.bytes_reserved();
  EXPECT_GE(reserved, 264u);
  EXPECT_EQ(arena.take_fresh_bytes(), reserved);

  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved) << "reset retains blocks";
  (void)arena.allocate_array<std::uint8_t>(180);  // fits a retained block
  EXPECT_EQ(arena.take_fresh_bytes(), 0u)
      << "allocation after reset must not touch the global allocator";
}

TEST(ArenaPool, RecyclesArenasWithoutFreshAllocation) {
  ArenaPool pool;
  {
    auto handle = pool.acquire();
    auto span = handle->allocate_array<std::uint64_t>(1024);
    std::fill(span.begin(), span.end(), std::uint64_t{7});
  }
  ArenaPoolMetrics metrics = pool.metrics();
  EXPECT_EQ(metrics.arenas_created, 1u);
  EXPECT_EQ(metrics.arenas_reused, 0u);
  EXPECT_GT(metrics.bytes_allocated, 0u);
  const std::uint64_t fresh = metrics.bytes_allocated;

  {
    auto handle = pool.acquire();
    (void)handle->allocate_array<std::uint64_t>(1024);
  }
  metrics = pool.metrics();
  EXPECT_EQ(metrics.arenas_created, 1u);
  EXPECT_EQ(metrics.arenas_reused, 1u);
  EXPECT_GT(metrics.bytes_reused, 0u);
  EXPECT_EQ(metrics.bytes_allocated, fresh)
      << "the second acquisition must be served from the recycled arena";
  EXPECT_EQ(metrics.peak_bytes, fresh);
}

// bytes_reused counts what a recycled arena hands out from the blocks it
// already held, not the capacity it brings along.
TEST(ArenaPool, CountsBytesReusedNotCapacity) {
  ArenaPool pool;
  {
    auto handle = pool.acquire();
    (void)handle->allocate_array<std::uint8_t>(1000);
  }
  {
    auto handle = pool.acquire();
    (void)handle->allocate_array<std::uint8_t>(100);
  }
  EXPECT_EQ(pool.metrics().bytes_reused, 100u);
}

TEST(ArenaPool, HandleMoveTransfersOwnershipAndReleaseIsIdempotent) {
  ArenaPool pool;
  auto a = pool.acquire();
  ASSERT_TRUE(static_cast<bool>(a));
  auto b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  (void)b->allocate(8, 8);
  b.release();
  EXPECT_FALSE(static_cast<bool>(b));
  b.release();  // second release is a no-op
  const ArenaPoolMetrics metrics = pool.metrics();
  EXPECT_EQ(metrics.arenas_created, 1u);
  EXPECT_EQ(pool.acquire() ? 1 : 0, 1);  // the released arena is reusable
}

}  // namespace
}  // namespace gpumine
