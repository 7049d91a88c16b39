#include "prep/encoder.hpp"

#include <algorithm>
#include <limits>

#include "common/ensure.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"

namespace gpumine::prep {

void EncoderParams::validate() const {
  GPUMINE_CHECK_ARG(dominance_threshold > 0.0,
                    "dominance_threshold must be positive");
}

EncodeResult encode(const Table& table, const EncoderParams& params,
                    std::size_t num_threads) {
  GPUMINE_SPAN("prep/encode");
  params.validate();
  const std::size_t rows = table.num_rows();
  EncodeResult result;

  // Pass 1: per-item row counts, to apply the dominance filter before any
  // ids are handed out (keeps the catalog free of dropped items).
  struct ColumnPlan {
    const CategoricalColumn* column;
    bool bare;
    std::string name;
  };
  std::vector<ColumnPlan> plan;
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    const std::string& name = table.column_name(c);
    GPUMINE_CHECK_ARG(!table.is_numeric(name),
                      "column '" + name +
                          "' is numeric; bin it before encoding");
    const bool bare =
        std::find(params.bare_label_columns.begin(),
                  params.bare_label_columns.end(),
                  name) != params.bare_label_columns.end();
    plan.push_back({&table.categorical(name), bare, name});
  }

  const double limit =
      params.dominance_threshold * static_cast<double>(rows);

  // Per column: which label codes survive, their item names, and the
  // column's dominance-dropped items. Columns are independent, so the
  // counting pass runs one column per pool task; dropped_items are
  // concatenated in column order afterwards, keeping the reporting
  // order identical to the serial sweep.
  std::vector<std::vector<bool>> keep(plan.size());
  std::vector<std::vector<std::string>> item_names(plan.size());
  std::vector<std::vector<std::string>> dropped(plan.size());
  parallel_for(num_threads, plan.size(), [&](std::size_t c) {
    const auto counts = plan[c].column->value_counts();
    keep[c].resize(counts.size());
    item_names[c].resize(counts.size());
    for (std::size_t code = 0; code < counts.size(); ++code) {
      const std::string& label =
          plan[c].column->label_of_code(static_cast<std::int32_t>(code));
      const std::string item =
          plan[c].bare ? label : plan[c].name + " = " + label;
      item_names[c][code] = item;
      if (static_cast<double>(counts[code]) > limit) {
        keep[c][code] = false;
        if (counts[code] > 0) dropped[c].push_back(item);
      } else {
        keep[c][code] = true;
      }
    }
  });
  for (std::vector<std::string>& d : dropped) {
    std::move(d.begin(), d.end(), std::back_inserter(result.dropped_items));
  }

  // Pass 2: intern surviving items in deterministic (column, code) order,
  // recording each id so the row pass never touches the catalog's hash.
  constexpr core::ItemId kDropped = std::numeric_limits<core::ItemId>::max();
  std::vector<std::vector<core::ItemId>> ids(plan.size());
  for (std::size_t c = 0; c < plan.size(); ++c) {
    ids[c].assign(item_names[c].size(), kDropped);
    for (std::size_t code = 0; code < item_names[c].size(); ++code) {
      if (keep[c][code]) {
        ids[c][code] = result.catalog.intern(item_names[c][code]);
      }
    }
  }

  // Pass 3: encode rows. Chunks build their transactions independently
  // (TransactionDb::add canonicalizes each one on append, as before);
  // the serial append in chunk order makes the database identical to
  // the row-by-row sweep.
  const std::size_t num_chunks = parallel_chunks(num_threads, rows);
  std::vector<std::vector<core::Itemset>> chunk_txns(num_chunks);
  parallel_for(num_threads, num_chunks, [&](std::size_t i) {
    GPUMINE_SPAN("prep/encode_chunk");
    const std::size_t lo = rows * i / num_chunks;
    const std::size_t hi = rows * (i + 1) / num_chunks;
    chunk_txns[i].reserve(hi - lo);
    core::Itemset txn;
    for (std::size_t r = lo; r < hi; ++r) {
      txn.clear();
      for (std::size_t c = 0; c < plan.size(); ++c) {
        if (plan[c].column->is_missing(r)) continue;
        const auto code = static_cast<std::size_t>(plan[c].column->code(r));
        if (ids[c][code] == kDropped) continue;
        txn.push_back(ids[c][code]);
      }
      chunk_txns[i].push_back(txn);
    }
  });

  result.db.reserve(rows, rows * plan.size());
  for (std::vector<core::Itemset>& txns : chunk_txns) {
    for (core::Itemset& txn : txns) result.db.add(std::move(txn));
  }
  return result;
}

}  // namespace gpumine::prep
