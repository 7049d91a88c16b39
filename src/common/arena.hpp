// Bump-pointer arena allocation for the mining hot path.
//
// An Arena hands out raw memory from geometrically growing blocks; a
// reset() retains the blocks and rewinds the bump pointer, so a reused
// arena serves every allocation without touching the global allocator.
// ArenaPool recycles whole arenas across tasks: a mining task acquires
// one arena for its FP-tree (all node arrays live in it contiguously),
// and on task completion the handle returns the arena — memory intact —
// for the next conditional tree to reuse. The pool is shared by all
// workers of one mining run; acquire/release is one uncontended mutex
// per *tree*, not per node, so recursive spawns never hit malloc after
// the first few trees have warmed the pool.
//
// Arenas only serve trivially-destructible payloads (index/count
// arrays): nothing is destroyed on reset, memory is simply reused.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace gpumine {

/// Allocation counters for one ArenaPool, snapshot via metrics().
struct ArenaPoolMetrics {
  std::uint64_t bytes_allocated = 0;  // fresh block bytes drawn from malloc
  std::uint64_t bytes_reused = 0;     // bytes served from blocks already held
  std::uint64_t arenas_created = 0;   // arenas built from scratch
  std::uint64_t arenas_reused = 0;    // acquisitions served from the free list
  std::size_t peak_bytes = 0;         // total reserved footprint across the pool
};

class Arena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = 1u << 14;  // 16 KiB

  explicit Arena(std::size_t first_block_bytes = kDefaultBlockBytes)
      : next_block_bytes_(first_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `alignment` (a power of two no
  /// larger than alignof(std::max_align_t)). Never returns null; grows by
  /// allocating a fresh block when the retained ones are exhausted.
  void* allocate(std::size_t bytes, std::size_t alignment) {
    while (active_ < blocks_.size()) {
      Block& block = blocks_[active_];
      const std::size_t aligned = align_up(offset_, alignment);
      if (aligned + bytes <= block.size) {
        offset_ = aligned + bytes;
        used_ += bytes;
        if (active_ < retained_blocks_) reused_bytes_ += bytes;
        return block.data.get() + aligned;
      }
      ++active_;
      offset_ = 0;
    }
    const std::size_t block_bytes = std::max(next_block_bytes_, bytes);
    next_block_bytes_ = block_bytes * 2;
    blocks_.push_back({std::make_unique<std::byte[]>(block_bytes), block_bytes});
    reserved_ += block_bytes;
    fresh_bytes_ += block_bytes;
    active_ = blocks_.size() - 1;
    offset_ = bytes;
    used_ += bytes;
    return blocks_.back().data.get();
  }

  /// Uninitialized array of `n` trivially-destructible `T`s.
  template <typename T>
  [[nodiscard]] std::span<T> allocate_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is never destroyed, only reused");
    if (n == 0) return {};
    auto* data = static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    return {data, n};
  }

  /// Rewinds to empty while retaining every block for reuse.
  void reset() {
    active_ = 0;
    offset_ = 0;
    used_ = 0;
    retained_blocks_ = blocks_.size();
  }

  /// Total capacity of the retained blocks.
  [[nodiscard]] std::size_t bytes_reserved() const { return reserved_; }
  /// Bytes handed out since the last reset (excludes alignment padding).
  [[nodiscard]] std::size_t bytes_used() const { return used_; }

  /// Fresh-from-malloc bytes since the last call; the pool drains this
  /// into its counters when the arena is returned.
  [[nodiscard]] std::uint64_t take_fresh_bytes() {
    return std::exchange(fresh_bytes_, std::uint64_t{0});
  }

  /// Bytes handed out from blocks held at the last reset(), since the
  /// last call; drained like take_fresh_bytes().
  [[nodiscard]] std::uint64_t take_reused_bytes() {
    return std::exchange(reused_bytes_, std::uint64_t{0});
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size;
  };

  static constexpr std::size_t align_up(std::size_t offset, std::size_t alignment) {
    return (offset + alignment - 1) & ~(alignment - 1);
  }

  std::vector<Block> blocks_;
  std::size_t active_ = 0;  // block currently bumping
  std::size_t offset_ = 0;  // bump offset within the active block
  std::size_t used_ = 0;
  std::size_t reserved_ = 0;
  std::size_t retained_blocks_ = 0;  // blocks held at the last reset()
  std::uint64_t fresh_bytes_ = 0;
  std::uint64_t reused_bytes_ = 0;
  std::size_t next_block_bytes_;
};

/// Recycles arenas across tasks. Handles are move-only owners: a task
/// that migrates between workers (work stealing) carries its arena with
/// it, and destruction returns the arena to the pool from whichever
/// thread finished the task.
class ArenaPool {
 public:
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          arena_(std::move(other.arena_)) {}
    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = std::exchange(other.pool_, nullptr);
        arena_ = std::move(other.arena_);
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { release(); }

    [[nodiscard]] Arena& operator*() const { return *arena_; }
    [[nodiscard]] Arena* operator->() const { return arena_.get(); }
    [[nodiscard]] explicit operator bool() const { return arena_ != nullptr; }

    /// Returns the arena to the pool early; safe to call repeatedly.
    void release() {
      if (pool_ != nullptr && arena_ != nullptr) {
        pool_->give_back(std::move(arena_));
      }
      pool_ = nullptr;
      arena_.reset();
    }

   private:
    friend class ArenaPool;
    Handle(ArenaPool* pool, std::unique_ptr<Arena> arena)
        : pool_(pool), arena_(std::move(arena)) {}

    ArenaPool* pool_ = nullptr;
    std::unique_ptr<Arena> arena_;
  };

  ArenaPool() = default;
  ArenaPool(const ArenaPool&) = delete;
  ArenaPool& operator=(const ArenaPool&) = delete;

  /// Pops a recycled arena (reset, blocks retained) or creates a fresh one.
  [[nodiscard]] Handle acquire() {
    std::unique_ptr<Arena> arena;
    {
      std::lock_guard lock(mutex_);
      if (!free_.empty()) {
        arena = std::move(free_.back());
        free_.pop_back();
        ++metrics_.arenas_reused;
      } else {
        ++metrics_.arenas_created;
      }
    }
    if (arena == nullptr) {
      arena = std::make_unique<Arena>();
    } else {
      arena->reset();
    }
    return Handle(this, std::move(arena));
  }

  [[nodiscard]] ArenaPoolMetrics metrics() const {
    std::lock_guard lock(mutex_);
    return metrics_;
  }

 private:
  friend class Handle;

  void give_back(std::unique_ptr<Arena> arena) {
    std::lock_guard lock(mutex_);
    metrics_.bytes_allocated += arena->take_fresh_bytes();
    metrics_.bytes_reused += arena->take_reused_bytes();
    metrics_.peak_bytes =
        std::max(metrics_.peak_bytes,
                 static_cast<std::size_t>(metrics_.bytes_allocated));
    free_.push_back(std::move(arena));
  }

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Arena>> free_;
  ArenaPoolMetrics metrics_;
};

}  // namespace gpumine
