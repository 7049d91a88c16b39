// One-hot transaction encoding (paper Sec. III-E).
//
// Turns a fully categorical Table into a core::TransactionDb: each row
// becomes a transaction containing one "column = label" item per
// non-missing cell. Items whose support exceeds `dominance_threshold`
// (paper: 80%) are dropped before encoding — near-universal items only
// generate uninteresting rules.
#pragma once

#include <string>
#include <vector>

#include "core/item_catalog.hpp"
#include "core/transaction_db.hpp"
#include "prep/table.hpp"

namespace gpumine::prep {

struct EncoderParams {
  /// Drop items present in more than this fraction of rows. Paper: 0.8.
  /// Set >= 1 to keep everything.
  double dominance_threshold = 0.8;
  /// Columns whose item names should be the bare label (e.g. framework
  /// "Tensorflow", status "Failed") rather than "column = label".
  std::vector<std::string> bare_label_columns;

  void validate() const;
};

struct EncodeResult {
  core::TransactionDb db;
  core::ItemCatalog catalog;
  /// Item names removed by the dominance filter, for reporting.
  std::vector<std::string> dropped_items;
};

/// Encodes every categorical column of `table`. Numeric columns trigger
/// std::invalid_argument — bin them first (prep::bin_column). The counting
/// pass (per column) and the row pass (per row chunk) run on `num_threads`
/// workers (0 = hardware concurrency); the result is identical for any
/// value.
[[nodiscard]] EncodeResult encode(const Table& table,
                                  const EncoderParams& params,
                                  std::size_t num_threads = 1);

}  // namespace gpumine::prep
