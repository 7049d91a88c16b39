#include "prep/table.hpp"

#include <cmath>
#include <limits>

#include "common/ensure.hpp"

namespace gpumine::prep {

void NumericColumn::push_missing() {
  values.push_back(std::numeric_limits<double>::quiet_NaN());
}

bool NumericColumn::is_missing(std::size_t row) const {
  return std::isnan(values[row]);
}

void CategoricalColumn::push(std::string_view label) {
  codes_.push_back(intern(label));
}

void CategoricalColumn::push_code(std::int32_t code) {
  GPUMINE_CHECK_ARG(
      code == kMissing ||
          (code >= 0 && static_cast<std::size_t>(code) < labels_.size()),
      "push_code: unknown code " + std::to_string(code));
  codes_.push_back(code);
}

std::int32_t CategoricalColumn::intern(std::string_view label) {
  if (auto it = index_.find(std::string(label)); it != index_.end()) {
    return it->second;
  }
  const auto code = static_cast<std::int32_t>(labels_.size());
  labels_.emplace_back(label);
  index_.emplace(labels_.back(), code);
  return code;
}

const std::string& CategoricalColumn::label(std::size_t row) const {
  const std::int32_t code = codes_[row];
  GPUMINE_CHECK_ARG(code != kMissing, "label() on missing row");
  return labels_[static_cast<std::size_t>(code)];
}

const std::string& CategoricalColumn::label_of_code(std::int32_t code) const {
  GPUMINE_CHECK_ARG(
      code >= 0 && static_cast<std::size_t>(code) < labels_.size(),
      "unknown code " + std::to_string(code));
  return labels_[static_cast<std::size_t>(code)];
}

std::vector<std::uint64_t> CategoricalColumn::value_counts() const {
  std::vector<std::uint64_t> counts(labels_.size(), 0);
  for (std::int32_t code : codes_) {
    if (code != kMissing) ++counts[static_cast<std::size_t>(code)];
  }
  return counts;
}

NumericColumn& Table::add_numeric(std::string name) {
  GPUMINE_CHECK_ARG(!has_column(name), "duplicate column '" + name + "'");
  index_.emplace(name, columns_.size());
  names_.push_back(std::move(name));
  columns_.emplace_back(NumericColumn{});
  return std::get<NumericColumn>(columns_.back());
}

CategoricalColumn& Table::add_categorical(std::string name) {
  GPUMINE_CHECK_ARG(!has_column(name), "duplicate column '" + name + "'");
  index_.emplace(name, columns_.size());
  names_.push_back(std::move(name));
  columns_.emplace_back(CategoricalColumn{});
  return std::get<CategoricalColumn>(columns_.back());
}

bool Table::has_column(std::string_view name) const {
  return index_.contains(std::string(name));
}

std::size_t Table::index_of(std::string_view name) const {
  auto it = index_.find(std::string(name));
  GPUMINE_CHECK_ARG(it != index_.end(),
                    "unknown column '" + std::string(name) + "'");
  return it->second;
}

const Column& Table::column(std::string_view name) const {
  return columns_[index_of(name)];
}

const NumericColumn& Table::numeric(std::string_view name) const {
  const Column& col = column(name);
  GPUMINE_CHECK_ARG(std::holds_alternative<NumericColumn>(col),
                    "column '" + std::string(name) + "' is not numeric");
  return std::get<NumericColumn>(col);
}

const CategoricalColumn& Table::categorical(std::string_view name) const {
  const Column& col = column(name);
  GPUMINE_CHECK_ARG(std::holds_alternative<CategoricalColumn>(col),
                    "column '" + std::string(name) + "' is not categorical");
  return std::get<CategoricalColumn>(col);
}

bool Table::is_numeric(std::string_view name) const {
  return std::holds_alternative<NumericColumn>(column(name));
}

namespace {
std::size_t column_size(const Column& col) {
  return std::visit([](const auto& c) { return c.size(); }, col);
}
}  // namespace

void Table::replace_column(std::string_view name, Column column) {
  const std::size_t i = index_of(name);
  GPUMINE_CHECK_ARG(column_size(column) == column_size(columns_[i]),
                    "replacement column size mismatch for '" +
                        std::string(name) + "'");
  columns_[i] = std::move(column);
}

void Table::drop_column(std::string_view name) {
  const std::size_t i = index_of(name);
  columns_.erase(columns_.begin() + static_cast<std::ptrdiff_t>(i));
  names_.erase(names_.begin() + static_cast<std::ptrdiff_t>(i));
  index_.clear();
  for (std::size_t j = 0; j < names_.size(); ++j) index_.emplace(names_[j], j);
}

std::size_t Table::num_rows() const {
  if (columns_.empty()) return 0;
  const std::size_t rows = column_size(columns_.front());
  for (std::size_t i = 1; i < columns_.size(); ++i) {
    GPUMINE_ENSURE(column_size(columns_[i]) == rows,
                   "ragged table: column '" + names_[i] + "' has " +
                       std::to_string(column_size(columns_[i])) +
                       " rows, expected " + std::to_string(rows));
  }
  return rows;
}

Table Table::filter_rows(const std::vector<bool>& keep) const {
  GPUMINE_CHECK_ARG(keep.size() == num_rows(),
                    "filter mask size mismatch");
  Table out;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (const auto* num = std::get_if<NumericColumn>(&columns_[c])) {
      NumericColumn& dst = out.add_numeric(names_[c]);
      for (std::size_t r = 0; r < keep.size(); ++r) {
        if (keep[r]) dst.push(num->values[r]);
      }
    } else {
      const auto& cat = std::get<CategoricalColumn>(columns_[c]);
      CategoricalColumn& dst = out.add_categorical(names_[c]);
      for (std::size_t r = 0; r < keep.size(); ++r) {
        if (!keep[r]) continue;
        if (cat.is_missing(r)) {
          dst.push_missing();
        } else {
          dst.push(cat.label(r));
        }
      }
    }
  }
  return out;
}

}  // namespace gpumine::prep
