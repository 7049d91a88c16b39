#include "oracle/apriori.hpp"

#include <algorithm>
#include <cstddef>

#include "common/ensure.hpp"

namespace gpumine::core {
namespace {

// Candidate generation: join two frequent (k-1)-itemsets sharing the
// first k-2 items (both canonical, so the shared prefix test is a direct
// comparison), then keep the candidate only if all (k-1)-subsets are
// frequent (anti-monotonicity prune).
std::vector<Itemset> generate_candidates(const std::vector<Itemset>& level,
                                         const SupportMap& frequent) {
  std::vector<Itemset> candidates;
  const std::size_t k1 = level.empty() ? 0 : level.front().size();
  for (std::size_t i = 0; i < level.size(); ++i) {
    for (std::size_t j = i + 1; j < level.size(); ++j) {
      const Itemset& a = level[i];
      const Itemset& b = level[j];
      if (!std::equal(a.begin(), a.end() - 1, b.begin())) {
        // `level` is sorted lexicographically, so once prefixes diverge no
        // later b shares a's prefix either.
        break;
      }
      Itemset cand = a;
      cand.push_back(b.back());
      if (cand.back() < a.back()) std::swap(cand[k1 - 1], cand[k1]);

      // Subset prune. The two generating subsets are frequent by
      // construction; check the remaining k-1 subsets.
      bool all_frequent = true;
      Itemset sub(cand.begin() + 1, cand.end());
      for (std::size_t drop = 0; drop + 2 < cand.size() && all_frequent;
           ++drop) {
        // `sub` currently misses cand[drop]; check it, then slide the
        // window: re-insert cand[drop] and remove cand[drop+1].
        if (!frequent.contains(std::span<const ItemId>(sub))) {
          all_frequent = false;
        } else {
          sub[drop] = cand[drop];
        }
      }
      if (all_frequent) candidates.push_back(std::move(cand));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

// Number of k-combinations of n items, saturating to avoid overflow.
std::uint64_t combinations(std::size_t n, std::size_t k) {
  if (k > n) return 0;
  std::uint64_t result = 1;
  for (std::size_t i = 0; i < k; ++i) {
    if (result > (1ull << 40)) return 1ull << 40;  // saturate: "many"
    result = result * (n - i) / (i + 1);
  }
  return result;
}

// Enumerates all k-subsets of `txn`, adding the transaction's weight to
// matching candidates.
void count_by_enumeration(std::span<const ItemId> txn, std::uint64_t weight,
                          std::size_t k, SupportMap& cand_counts) {
  Itemset scratch;
  scratch.reserve(k);
  std::vector<std::size_t> idx(k);
  for (std::size_t i = 0; i < k; ++i) idx[i] = i;
  for (;;) {
    scratch.clear();
    for (std::size_t i : idx) scratch.push_back(txn[i]);
    if (auto it = cand_counts.find(std::span<const ItemId>(scratch));
        it != cand_counts.end()) {
      it->second += weight;
    }
    // Advance the combination (rightmost index that can still move).
    std::size_t pos = k;
    while (pos > 0 && idx[pos - 1] == txn.size() - (k - pos) - 1) --pos;
    if (pos == 0) break;
    ++idx[pos - 1];
    for (std::size_t i = pos; i < k; ++i) idx[i] = idx[i - 1] + 1;
  }
}

}  // namespace

MiningResult mine_apriori(const TransactionDb& db, const MiningParams& params) {
  params.validate();
  MiningResult result;
  result.db_size = db.total_weight();
  if (db.empty()) return result;

  const std::uint64_t min_count = params.min_count(db.total_weight());

  // Level 1: direct per-item counting.
  const auto counts = db.item_counts();
  std::vector<Itemset> level;
  for (ItemId id = 0; id < counts.size(); ++id) {
    if (counts[id] >= min_count) {
      level.push_back(Itemset{id});
      result.itemsets.push_back({Itemset{id}, counts[id]});
    }
  }

  SupportMap frequent;
  for (const auto& fi : result.itemsets) frequent.emplace(fi.items, fi.count);

  for (std::size_t k = 2; k <= params.max_length && level.size() >= 2; ++k) {
    std::vector<Itemset> candidates = generate_candidates(level, frequent);
    if (candidates.empty()) break;

    // Count candidates in one pass. Candidates are indexed in a hash map;
    // for each transaction we either enumerate its k-subsets (cheap when
    // C(|txn|, k) is small relative to the candidate count) or probe each
    // candidate with a merge-subset test.
    SupportMap cand_counts;
    cand_counts.reserve(candidates.size());
    for (const auto& c : candidates) cand_counts.emplace(c, 0);

    for (std::size_t t = 0; t < db.size(); ++t) {
      const auto txn = db[t];
      if (txn.size() < k) continue;
      const std::uint64_t w = db.weight(t);
      if (combinations(txn.size(), k) <= candidates.size()) {
        count_by_enumeration(txn, w, k, cand_counts);
      } else {
        for (auto& [cand, count] : cand_counts) {
          if (is_subset(cand, txn)) count += w;
        }
      }
    }

    level.clear();
    for (const auto& c : candidates) {
      const std::uint64_t count = cand_counts.at(c);
      if (count >= min_count) {
        level.push_back(c);
        result.itemsets.push_back({c, count});
        frequent.emplace(c, count);
      }
    }
    std::sort(level.begin(), level.end());
  }

  sort_canonical(result.itemsets);
  return result;
}

}  // namespace gpumine::core
