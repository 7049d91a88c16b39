// Shared fixture for the serve tests: a small mined RuleSnapshot with
// human-readable item names, deterministic per seed.
#pragma once

#include <cctype>
#include <cstdint>
#include <string>
#include <utility>

#include "core/fpgrowth.hpp"
#include "core/item_catalog.hpp"
#include "core/snapshot.hpp"
#include "core/transaction_db.hpp"
#include "trace/rng.hpp"

namespace gpumine::serve::testutil {

inline core::RuleSnapshot snapshot_fixture(std::uint64_t seed = 4,
                                           std::size_t num_txns = 120) {
  core::ItemCatalog catalog;
  catalog.intern("Failed");
  catalog.intern("Multi-GPU");
  catalog.intern("SM Util = 0%");
  catalog.intern("GMem = 0%");

  trace::Rng rng(seed);
  core::TransactionDb db;
  for (std::size_t t = 0; t < num_txns; ++t) {
    core::Itemset txn;
    for (core::ItemId item = 0; item < catalog.size(); ++item) {
      if (rng.bernoulli(0.45)) txn.push_back(item);
    }
    if (!txn.empty()) db.add(std::move(txn));
  }

  core::MiningParams mining;
  mining.min_support = 0.1;
  core::RuleParams rules;
  rules.min_lift = 0.0;
  return core::build_rule_snapshot(core::mine_fpgrowth(db, mining),
                                   std::move(catalog), rules,
                                   core::PruneParams{});
}

/// "/query?keyword=NAME" with every byte of NAME outside [A-Za-z0-9]
/// percent-encoded, so any catalog name fits in an HTTP request line.
inline std::string query_target(const std::string& keyword) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string target = "/query?keyword=";
  for (const char c : keyword) {
    const auto byte = static_cast<unsigned char>(c);
    if (std::isalnum(byte) != 0) {
      target += c;
    } else {
      target += '%';
      target += kHex[byte >> 4];
      target += kHex[byte & 15];
    }
  }
  return target;
}

}  // namespace gpumine::serve::testutil
