// Columnar job-feature table — the merged "single file" of Sec. III-E.
//
// A Table holds one row per job and a named, typed column per feature.
// Numeric columns use NaN for missing values; categorical columns use
// interned label codes with -1 for missing. The preprocessing pipeline
// transforms numeric columns into categorical ones (binning), rewrites
// categorical columns (share grouping, category merging), and finally
// one-hot encodes everything into a core::TransactionDb.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

namespace gpumine::prep {

/// Numeric feature column. Missing = NaN.
struct NumericColumn {
  std::vector<double> values;

  [[nodiscard]] std::size_t size() const { return values.size(); }
  void push(double v) { values.push_back(v); }
  void push_missing();
  [[nodiscard]] bool is_missing(std::size_t row) const;
};

/// Categorical feature column with interned labels. Missing = code -1.
class CategoricalColumn {
 public:
  static constexpr std::int32_t kMissing = -1;

  /// Interns `label` and appends its code.
  void push(std::string_view label);
  void push_missing() { codes_.push_back(kMissing); }
  /// Appends an already-interned code (must be valid or kMissing).
  void push_code(std::int32_t code);

  /// Code for `label`, interning it if new.
  std::int32_t intern(std::string_view label);

  [[nodiscard]] std::size_t size() const { return codes_.size(); }
  [[nodiscard]] std::int32_t code(std::size_t row) const { return codes_[row]; }
  [[nodiscard]] bool is_missing(std::size_t row) const {
    return codes_[row] == kMissing;
  }
  /// Label for a row; throws for missing rows — check is_missing first.
  [[nodiscard]] const std::string& label(std::size_t row) const;
  [[nodiscard]] const std::string& label_of_code(std::int32_t code) const;
  [[nodiscard]] std::size_t num_labels() const { return labels_.size(); }

  /// Count of rows per label code (missing rows excluded).
  [[nodiscard]] std::vector<std::uint64_t> value_counts() const;

 private:
  std::vector<std::int32_t> codes_;
  std::vector<std::string> labels_;
  std::unordered_map<std::string, std::int32_t> index_;
};

using Column = std::variant<NumericColumn, CategoricalColumn>;

class Table {
 public:
  /// Adds an empty column; name must be unique. The returned reference
  /// stays valid across further add_* calls (columns live in a deque);
  /// replace_column and drop_column invalidate it.
  NumericColumn& add_numeric(std::string name);
  CategoricalColumn& add_categorical(std::string name);

  [[nodiscard]] bool has_column(std::string_view name) const;
  [[nodiscard]] std::size_t num_columns() const { return columns_.size(); }
  [[nodiscard]] const std::string& column_name(std::size_t i) const {
    return names_[i];
  }

  [[nodiscard]] const Column& column(std::string_view name) const;
  [[nodiscard]] const NumericColumn& numeric(std::string_view name) const;
  [[nodiscard]] const CategoricalColumn& categorical(std::string_view name) const;
  [[nodiscard]] bool is_numeric(std::string_view name) const;

  /// Replaces an existing column (may change its type); size must match
  /// the replaced column's size.
  void replace_column(std::string_view name, Column column);
  void drop_column(std::string_view name);

  /// Number of rows. Throws std::logic_error if columns disagree —
  /// call after finishing a batch of pushes.
  [[nodiscard]] std::size_t num_rows() const;

  /// Row-subset copy: keeps rows where `keep[row]` is true.
  [[nodiscard]] Table filter_rows(const std::vector<bool>& keep) const;

 private:
  [[nodiscard]] std::size_t index_of(std::string_view name) const;

  std::vector<std::string> names_;
  std::deque<Column> columns_;
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace gpumine::prep
