#include "core/fpgrowth.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/ensure.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"

namespace gpumine::core {
namespace {

constexpr std::uint32_t kNoRank = static_cast<std::uint32_t>(-1);
constexpr std::uint32_t kNoNode = static_cast<std::uint32_t>(-1);
constexpr std::uint64_t kEmptySlot = static_cast<std::uint64_t>(-1);

// 64-bit finalizer (Murmur3-style): both key halves — parent id high,
// rank low — reach every slot bit, so sibling runs don't cluster.
constexpr std::size_t hash_key(std::uint64_t key) {
  key ^= key >> 33;
  key *= 0xFF51AFD7ED558CCDull;
  key ^= key >> 33;
  return static_cast<std::size_t>(key);
}

// Cross-tree observability, shared by every tree of one mining run.
struct TreeStats {
  std::atomic<std::uint64_t> probes{0};          // child-table slots inspected
  std::atomic<std::uint64_t> resident_nodes{0};  // nodes of all live trees
  std::atomic<std::uint64_t> peak_nodes{0};      // max of resident_nodes
};

// FP-tree over *ranks* in a structure-of-arrays layout: parallel
// item_rank/count/parent/header_next arrays of 32-bit indices, all bump-
// allocated from one per-task arena in a single reservation (the node
// capacity is known before the first insert). Children are resolved
// through an open-addressing table keyed by (parent << 32 | rank), also
// arena-resident, probed linearly at <= 0.5 load — no per-node heap
// allocations, no pointer chasing beyond the parent walk itself.
//
// Paths are strictly rank-increasing from the root (node 0); header
// chains link all nodes of a rank.
class FlatFpTree {
 public:
  // `max_nodes` bounds the node count *including* the root; every array
  // is reserved up front from `arena`, which the tree owns until
  // destruction (work-stealing may destroy it on another thread).
  FlatFpTree(ArenaPool::Handle arena, std::uint32_t num_ranks,
             std::uint32_t max_nodes, TreeStats* stats)
      : arena_(std::move(arena)), stats_(stats) {
    GPUMINE_ENSURE(max_nodes >= 1 && max_nodes < kNoNode,
                   "FP-tree node capacity out of 32-bit range");
    item_of_rank_ = arena_->allocate_array<ItemId>(num_ranks);
    count_of_rank_ = arena_->allocate_array<std::uint64_t>(num_ranks);
    header_ = arena_->allocate_array<std::uint32_t>(num_ranks);
    std::fill(header_.begin(), header_.end(), kNoNode);

    rank_ = arena_->allocate_array<std::uint32_t>(max_nodes);
    count_ = arena_->allocate_array<std::uint64_t>(max_nodes);
    parent_ = arena_->allocate_array<std::uint32_t>(max_nodes);
    next_ = arena_->allocate_array<std::uint32_t>(max_nodes);
    child_count_ = arena_->allocate_array<std::uint32_t>(max_nodes);

    std::size_t table = 16;
    while (table < static_cast<std::size_t>(max_nodes) * 2) table *= 2;
    slot_key_ = arena_->allocate_array<std::uint64_t>(table);
    slot_node_ = arena_->allocate_array<std::uint32_t>(table);
    std::fill(slot_key_.begin(), slot_key_.end(), kEmptySlot);
    table_mask_ = table - 1;

    rank_[0] = kNoRank;  // root
    count_[0] = 0;
    parent_[0] = kNoNode;
    next_[0] = kNoNode;
    child_count_[0] = 0;
    num_nodes_ = 1;
  }

  FlatFpTree(FlatFpTree&& other) noexcept
      : arena_(std::move(other.arena_)),
        stats_(other.stats_),
        item_of_rank_(other.item_of_rank_),
        count_of_rank_(other.count_of_rank_),
        header_(other.header_),
        rank_(other.rank_),
        count_(other.count_),
        parent_(other.parent_),
        next_(other.next_),
        child_count_(other.child_count_),
        slot_key_(other.slot_key_),
        slot_node_(other.slot_node_),
        table_mask_(other.table_mask_),
        probes_(std::exchange(other.probes_, 0)),
        num_nodes_(other.num_nodes_),
        registered_(std::exchange(other.registered_, false)),
        single_path_(other.single_path_) {}

  FlatFpTree(const FlatFpTree&) = delete;
  FlatFpTree& operator=(const FlatFpTree&) = delete;
  FlatFpTree& operator=(FlatFpTree&&) = delete;

  ~FlatFpTree() {
    if (stats_ != nullptr) {
      if (probes_ > 0) {
        stats_->probes.fetch_add(probes_, std::memory_order_relaxed);
      }
      if (registered_) {
        stats_->resident_nodes.fetch_sub(num_nodes_,
                                         std::memory_order_relaxed);
      }
    }
  }

  void init_rank(std::uint32_t rank, ItemId item, std::uint64_t count) {
    item_of_rank_[rank] = item;
    count_of_rank_[rank] = count;
  }

  // Inserts a strictly rank-ascending path with multiplicity `weight`.
  void insert(std::span<const std::uint32_t> ranks, std::uint64_t weight) {
    std::uint32_t cur = 0;  // root
    for (std::uint32_t r : ranks) {
      const std::uint64_t key = (static_cast<std::uint64_t>(cur) << 32) | r;
      std::size_t slot = hash_key(key) & table_mask_;
      ++probes_;
      while (slot_key_[slot] != kEmptySlot && slot_key_[slot] != key) {
        slot = (slot + 1) & table_mask_;
        ++probes_;
      }
      if (slot_key_[slot] == key) {
        cur = slot_node_[slot];
        count_[cur] += weight;
      } else {
        const std::uint32_t id = num_nodes_++;
        rank_[id] = r;
        count_[id] = weight;
        parent_[id] = cur;
        next_[id] = header_[r];
        child_count_[id] = 0;
        header_[r] = id;
        slot_key_[slot] = key;
        slot_node_[slot] = id;
        if (child_count_[cur]++ != 0) single_path_ = false;
        cur = id;
      }
    }
  }

  // Publishes the node count to the run's resident/peak counters; call
  // once when the build is complete.
  void finish_build() {
    if (stats_ == nullptr || registered_) return;
    registered_ = true;
    const std::uint64_t now =
        stats_->resident_nodes.fetch_add(num_nodes_,
                                         std::memory_order_relaxed) +
        num_nodes_;
    std::uint64_t peak = stats_->peak_nodes.load(std::memory_order_relaxed);
    while (now > peak && !stats_->peak_nodes.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::size_t num_ranks() const { return item_of_rank_.size(); }
  /// Tree size including the root — the scheduler's spawn heuristic.
  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] ItemId item(std::uint32_t rank) const { return item_of_rank_[rank]; }
  [[nodiscard]] std::uint64_t rank_count(std::uint32_t rank) const {
    return count_of_rank_[rank];
  }
  [[nodiscard]] std::uint32_t header(std::uint32_t rank) const {
    return header_[rank];
  }
  [[nodiscard]] std::uint32_t node_rank(std::uint32_t id) const { return rank_[id]; }
  [[nodiscard]] std::uint64_t node_count(std::uint32_t id) const { return count_[id]; }
  [[nodiscard]] std::uint32_t node_parent(std::uint32_t id) const { return parent_[id]; }
  [[nodiscard]] std::uint32_t node_next(std::uint32_t id) const { return next_[id]; }

  // True iff no node has more than one child — the single-path case.
  [[nodiscard]] bool single_path() const { return single_path_; }

  // For a single-path tree: the path as (item, count) from root downward.
  [[nodiscard]] std::vector<std::pair<ItemId, std::uint64_t>> path() const {
    GPUMINE_ENSURE(single_path(), "path() requires a single-path tree");
    std::vector<std::pair<ItemId, std::uint64_t>> out;
    // Ranks on a path ascend, and with one node per rank the header table
    // itself enumerates the path in rank order.
    for (std::uint32_t r = 0; r < header_.size(); ++r) {
      if (header_[r] != kNoNode) {
        out.emplace_back(item_of_rank_[r], count_[header_[r]]);
      }
    }
    return out;
  }

 private:
  ArenaPool::Handle arena_;
  TreeStats* stats_;
  std::span<ItemId> item_of_rank_;
  std::span<std::uint64_t> count_of_rank_;
  std::span<std::uint32_t> header_;
  std::span<std::uint32_t> rank_;       // per node
  std::span<std::uint64_t> count_;      // per node
  std::span<std::uint32_t> parent_;     // per node; kNoNode for the root
  std::span<std::uint32_t> next_;       // per node; header chain of its rank
  std::span<std::uint32_t> child_count_;  // per node
  std::span<std::uint64_t> slot_key_;   // open-addressing child table
  std::span<std::uint32_t> slot_node_;
  std::size_t table_mask_ = 0;
  std::uint64_t probes_ = 0;
  std::uint32_t num_nodes_ = 0;
  bool registered_ = false;
  bool single_path_ = true;
};

// Per-thread projection scratch, reused across every conditional-tree
// build this thread performs: weighted counts, path-occurrence counts
// and the old->new rank map are flat arrays over the parent's ranks, so
// a projection touches the global allocator only while the scratch
// grows toward its high-water capacity.
struct CondScratch {
  std::vector<std::uint64_t> weight;       // old rank -> projected support
  std::vector<std::uint32_t> occurrences;  // old rank -> path occurrences
  std::vector<std::uint32_t> new_rank;     // old rank -> new rank (kNoRank)
  std::vector<std::uint32_t> kept;         // old ranks surviving min_count
  std::vector<std::uint32_t> path;         // one prefix path, new ranks
};

CondScratch& cond_scratch() {
  static thread_local CondScratch scratch;
  return scratch;
}

// Shared state of one parallel (or serial) FP-Growth run. Tasks append
// their locally collected itemsets into `out` under `out_mutex`; the
// final sort_canonical makes the merge order irrelevant, so thread-count
// and steal order never change the result.
struct MineShared {
  static constexpr std::size_t kDepthSlots = 16;

  std::uint64_t min_count = 0;
  std::size_t max_length = 0;
  std::size_t spawn_cutoff_nodes = 0;
  ThreadPool::TaskGroup* group = nullptr;  // null => mine serially

  ArenaPool arena_pool;  // every tree's arrays live in a pooled arena
  TreeStats tree_stats;

  std::mutex out_mutex;
  std::vector<FrequentItemset>* out = nullptr;

  // Conditional trees mined per recursion depth; last slot = "deeper".
  std::array<std::atomic<std::uint64_t>, kDepthSlots> depth_histogram{};

  void record_depth(std::size_t depth) {
    const std::size_t slot = std::min(depth, kDepthSlots - 1);
    depth_histogram[slot].fetch_add(1, std::memory_order_relaxed);
  }

  void flush(std::vector<FrequentItemset>& local) {
    std::lock_guard lock(out_mutex);
    out->insert(out->end(), std::make_move_iterator(local.begin()),
                std::make_move_iterator(local.end()));
  }
};

// Builds the conditional FP-tree for `rank` of `tree`: the database of
// prefix paths of every `rank` node, weighted by that node's count,
// restricted to items that stay frequent in the projection. The new tree
// draws a fresh arena from the pool; its exact node-capacity bound (total
// surviving path occurrences) falls out of the counting pass.
FlatFpTree conditional_tree(MineShared& shared, const FlatFpTree& tree,
                            std::uint32_t rank) {
  CondScratch& scratch = cond_scratch();
  const std::size_t parent_ranks = tree.num_ranks();
  scratch.weight.assign(parent_ranks, 0);
  scratch.occurrences.assign(parent_ranks, 0);

  // Pass 1: weighted item counts over the prefix paths.
  for (std::uint32_t id = tree.header(rank); id != kNoNode;
       id = tree.node_next(id)) {
    const std::uint64_t w = tree.node_count(id);
    for (std::uint32_t p = tree.node_parent(id); p != 0;
         p = tree.node_parent(p)) {
      scratch.weight[tree.node_rank(p)] += w;
      ++scratch.occurrences[tree.node_rank(p)];
    }
  }

  // New rank order: support-descending, ties by old rank for determinism.
  scratch.kept.clear();
  for (std::uint32_t r = 0; r < parent_ranks; ++r) {
    if (scratch.weight[r] >= shared.min_count) scratch.kept.push_back(r);
  }
  std::sort(scratch.kept.begin(), scratch.kept.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (scratch.weight[a] != scratch.weight[b]) {
                return scratch.weight[a] > scratch.weight[b];
              }
              return a < b;
            });

  // Every surviving path occurrence creates at most one node.
  std::uint32_t max_nodes = 1;
  for (std::uint32_t old : scratch.kept) max_nodes += scratch.occurrences[old];

  FlatFpTree cond(shared.arena_pool.acquire(),
                  static_cast<std::uint32_t>(scratch.kept.size()), max_nodes,
                  &shared.tree_stats);
  scratch.new_rank.assign(parent_ranks, kNoRank);
  for (std::uint32_t nr = 0; nr < scratch.kept.size(); ++nr) {
    const std::uint32_t old = scratch.kept[nr];
    cond.init_rank(nr, tree.item(old), scratch.weight[old]);
    scratch.new_rank[old] = nr;
  }
  if (cond.num_ranks() == 0) {
    cond.finish_build();
    return cond;
  }

  // Pass 2: re-insert each prefix path under the new ranking.
  for (std::uint32_t id = tree.header(rank); id != kNoNode;
       id = tree.node_next(id)) {
    scratch.path.clear();
    for (std::uint32_t p = tree.node_parent(id); p != 0;
         p = tree.node_parent(p)) {
      const std::uint32_t nr = scratch.new_rank[tree.node_rank(p)];
      if (nr != kNoRank) scratch.path.push_back(nr);
    }
    if (scratch.path.empty()) continue;
    std::sort(scratch.path.begin(), scratch.path.end());
    cond.insert(scratch.path, tree.node_count(id));
  }
  cond.finish_build();
  return cond;
}

// Emits suffix ∪ S for every non-empty subset S of the single path whose
// size fits the remaining length budget. The count of a subset is the
// count of its deepest (least-frequent) chosen node.
void enumerate_single_path(
    const std::vector<std::pair<ItemId, std::uint64_t>>& path,
    const Itemset& suffix, std::size_t max_extra,
    std::vector<FrequentItemset>& out) {
  if (max_extra == 0 || path.empty()) return;
  // Depth-first over path positions; counts along the path are
  // non-increasing, so the deepest chosen position determines the count.
  std::vector<std::size_t> chosen;
  auto recurse = [&](auto&& self, std::size_t start) -> void {
    for (std::size_t i = start; i < path.size(); ++i) {
      chosen.push_back(i);
      Itemset items = suffix;
      for (std::size_t c : chosen) items.push_back(path[c].first);
      canonicalize(items);
      out.push_back({std::move(items), path[i].second});
      if (chosen.size() < max_extra) self(self, i + 1);
      chosen.pop_back();
    }
  };
  recurse(recurse, 0);
}

void mine_tree(MineShared& shared, const FlatFpTree& tree,
               const Itemset& suffix, std::size_t depth,
               std::vector<FrequentItemset>& out);

// Dispatches one conditional tree: the single-path shortcut inline, a
// scheduler task for big trees (the task owns the tree — and with it the
// arena — and flushes its own buffer), and inline recursion for the
// rest. `depth` is the depth of `cond` itself.
void mine_conditional(MineShared& shared, FlatFpTree cond,
                      const Itemset& suffix, std::size_t depth,
                      std::vector<FrequentItemset>& out) {
  shared.record_depth(depth);
  if (cond.single_path()) {
    enumerate_single_path(cond.path(), suffix,
                          shared.max_length - suffix.size(), out);
    return;
  }
  if (shared.group != nullptr && cond.num_nodes() >= shared.spawn_cutoff_nodes) {
    shared.group->run(
        [&shared, cond = std::move(cond), suffix, depth]() mutable {
          GPUMINE_SPAN("mine/fpgrowth_task");
          std::vector<FrequentItemset> local;
          mine_tree(shared, cond, suffix, depth, local);
          shared.flush(local);
        });
    return;
  }
  mine_tree(shared, cond, suffix, depth, out);
}

// Recursive FP-Growth over `tree`, extending `suffix`. Conditional trees
// above the spawn cutoff become independent work-stealing tasks, so one
// heavy projection no longer serializes the run.
void mine_tree(MineShared& shared, const FlatFpTree& tree,
               const Itemset& suffix, std::size_t depth,
               std::vector<FrequentItemset>& out) {
  // Least-frequent rank first is the classical order; any order yields
  // the same set, but this keeps conditional trees small.
  for (std::uint32_t r = static_cast<std::uint32_t>(tree.num_ranks()); r-- > 0;) {
    Itemset extended = suffix;
    extended.push_back(tree.item(r));
    canonicalize(extended);
    out.push_back({extended, tree.rank_count(r)});
    if (extended.size() >= shared.max_length) continue;

    FlatFpTree cond = conditional_tree(shared, tree, r);
    if (cond.num_ranks() == 0) continue;
    mine_conditional(shared, std::move(cond), extended, depth + 1, out);
  }
}

}  // namespace

MiningResult mine_fpgrowth(const TransactionDb& db, const MiningParams& params) {
  GPUMINE_SPAN("mine/fpgrowth");
  params.validate();
  MiningResult result;
  result.db_size = db.total_weight();
  if (db.empty()) return result;

  const std::uint64_t min_count = params.min_count(db.total_weight());

  // One shared re-encode: global support-descending ranks, transactions
  // as rank-ascending runs in a flat buffer (see RankEncoding).
  const RankEncoding enc = rank_encode(db, min_count);
  const std::size_t n = enc.num_ranks();

  const auto wall_begin = std::chrono::steady_clock::now();

  // Top level: 1-itemsets, then the recursive mine over each rank's
  // conditional tree. With threads, big projections (top-level or nested)
  // become work-stealing tasks; small ones are mined inline by whichever
  // thread produced them.
  for (std::uint32_t r = 0; r < n; ++r) {
    result.itemsets.push_back({Itemset{enc.item_of_rank[r]}, enc.count_of_rank[r]});
  }

  MineShared shared;
  shared.min_count = min_count;
  shared.max_length = params.max_length;
  shared.spawn_cutoff_nodes = params.spawn_cutoff_nodes;
  shared.out = &result.itemsets;

  {
    FlatFpTree tree(shared.arena_pool.acquire(), static_cast<std::uint32_t>(n),
                    static_cast<std::uint32_t>(enc.items.size() + 1),
                    &shared.tree_stats);
    {
      GPUMINE_SPAN("mine/fpgrowth_build_tree");
      for (std::uint32_t r = 0; r < n; ++r) {
        tree.init_rank(r, enc.item_of_rank[r], enc.count_of_rank[r]);
      }
      for (std::size_t t = 0; t < enc.size(); ++t) {
        const auto ranks = enc.transaction(t);
        if (!ranks.empty()) {
          tree.insert(ranks, enc.weights.empty() ? 1 : enc.weights[t]);
        }
      }
      tree.finish_build();
    }

    auto mine_all_ranks = [&](std::vector<FrequentItemset>& out) {
      if (params.max_length < 2) return;
      for (std::uint32_t r = static_cast<std::uint32_t>(n); r-- > 0;) {
        const Itemset suffix{tree.item(r)};
        FlatFpTree cond = conditional_tree(shared, tree, r);
        if (cond.num_ranks() == 0) continue;
        mine_conditional(shared, std::move(cond), suffix, 0, out);
      }
    };

    if (params.num_threads == 1 || n < 2) {
      mine_all_ranks(result.itemsets);
      result.metrics.num_workers = 1;
    } else {
      ThreadPool& pool = ThreadPool::shared(params.num_threads);
      // The pool outlives this run: zero its counters so the metrics
      // below count this run's tasks alone.
      (void)pool.take_metrics();
      ThreadPool::TaskGroup group(pool);
      shared.group = &group;
      std::vector<FrequentItemset> local;  // calling thread's buffer
      mine_all_ranks(local);
      group.wait();
      shared.flush(local);
      result.metrics.num_workers = pool.size();
      const SchedulerMetrics sched = pool.take_metrics();
      result.metrics.tasks_spawned = sched.tasks_spawned;
      result.metrics.tasks_stolen = sched.tasks_stolen;
      result.metrics.peak_queue_length = sched.peak_queue_length;
      result.metrics.worker_busy_seconds = sched.worker_busy_seconds;
    }
  }  // root tree released here, so the arena counters below are final

  const ArenaPoolMetrics arena = shared.arena_pool.metrics();
  result.metrics.arena_bytes_allocated = arena.bytes_allocated;
  result.metrics.arena_bytes_reused = arena.bytes_reused;
  result.metrics.peak_arena_bytes = arena.peak_bytes;
  result.metrics.peak_tree_nodes =
      shared.tree_stats.peak_nodes.load(std::memory_order_relaxed);
  result.metrics.child_probe_count =
      shared.tree_stats.probes.load(std::memory_order_relaxed);

  for (const auto& slot : shared.depth_histogram) {
    result.metrics.depth_histogram.push_back(
        slot.load(std::memory_order_relaxed));
  }
  while (!result.metrics.depth_histogram.empty() &&
         result.metrics.depth_histogram.back() == 0) {
    result.metrics.depth_histogram.pop_back();
  }
  result.metrics.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count();

  sort_canonical(result.itemsets);
  return result;
}

}  // namespace gpumine::core
