#include "prep/binning.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/ensure.hpp"

namespace gpumine::prep {
namespace {

// Insert-only open-addressing frequency counter keyed on the double's
// bit pattern (-0.0 normalized to +0.0 so the key respects ==; NaNs
// are excluded by the caller). The spike scan counts every present
// value once per column, which made a node-based unordered_map the
// single hottest piece of fit_bins.
class ValueCounter {
 public:
  explicit ValueCounter(std::size_t n) {
    std::size_t cap = 16;
    while (cap < 2 * n) cap <<= 1;
    keys_.resize(cap);
    counts_.assign(cap, 0);
    mask_ = cap - 1;
  }

  void add(double v) {
    const auto key = std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v);
    std::uint64_t h = key * 0x9E3779B97F4A7C15ULL;
    std::size_t i = static_cast<std::size_t>(h ^ (h >> 32)) & mask_;
    while (counts_[i] != 0 && keys_[i] != key) i = (i + 1) & mask_;
    keys_[i] = key;
    ++counts_[i];
  }

  /// Visits every (value, count) pair in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i <= mask_; ++i) {
      if (counts_[i] != 0) fn(std::bit_cast<double>(keys_[i]), counts_[i]);
    }
  }

 private:
  std::vector<std::uint64_t> keys_;
  std::vector<std::size_t> counts_;
  std::size_t mask_ = 0;
};

}  // namespace

void BinningParams::validate() const {
  GPUMINE_CHECK_ARG(num_bins >= 1, "num_bins must be >= 1");
  GPUMINE_CHECK_ARG(zero_mass_threshold > 0.0,
                    "zero_mass_threshold must be positive");
  GPUMINE_CHECK_ARG(spike_mass_threshold > 0.0,
                    "spike_mass_threshold must be positive");
  GPUMINE_CHECK_ARG(!bin_prefix.empty(), "bin_prefix must be non-empty");
}

std::size_t BinSpec::num_bins() const {
  return labels.size() + (has_zero_bin ? 1u : 0u) +
         (spike_value.has_value() ? 1u : 0u);
}

BinSpec fit_bins(std::span<const double> values, const BinningParams& params) {
  params.validate();
  BinSpec spec;
  spec.zero_label = params.zero_label;
  spec.spike_label = params.spike_label;

  std::vector<double> present;
  present.reserve(values.size());
  for (double v : values) {
    if (!std::isnan(v)) present.push_back(v);
  }
  if (present.empty()) return spec;

  const auto n_present = static_cast<double>(present.size());

  // Dedicated zero bin.
  const auto zero_count = static_cast<double>(
      std::count(present.begin(), present.end(), 0.0));
  if (zero_count / n_present >= params.zero_mass_threshold) {
    spec.has_zero_bin = true;
  }

  // Dedicated spike bin: the most frequent exact non-zero value, when it
  // carries enough mass.
  {
    ValueCounter freq(present.size());
    for (double v : present) {
      if (v != 0.0 || !spec.has_zero_bin) freq.add(v);
    }
    double best_value = 0.0;
    std::size_t best_count = 0;
    freq.for_each([&](double v, std::size_t c) {
      if (c > best_count || (c == best_count && v < best_value)) {
        best_value = v;
        best_count = c;
      }
    });
    if (best_count > 0 &&
        static_cast<double>(best_count) / n_present >=
            params.spike_mass_threshold &&
        !(spec.has_zero_bin && best_value == 0.0)) {
      spec.spike_value = best_value;
    }
  }

  // Residual values get the quantile (or width) edges.
  std::vector<double> residual;
  residual.reserve(present.size());
  for (double v : present) {
    if (spec.has_zero_bin && v == 0.0) continue;
    if (spec.spike_value.has_value() && v == *spec.spike_value) continue;
    residual.push_back(v);
  }
  if (residual.empty()) return spec;  // specials consumed everything

  // Selection instead of a full sort: the edges only need the minimum
  // (plus the maximum for equal-width) and the k-1 interior quantile
  // order statistics. Ascending nth_element calls narrow the suffix
  // each time and reproduce exactly the values a full sort would put at
  // those indices — ties included — so the edges stay bit-identical.
  const int k = params.num_bins;
  const double lo = *std::min_element(residual.begin(), residual.end());
  std::vector<double> edges;
  if (params.equal_width) {
    const double hi = *std::max_element(residual.begin(), residual.end());
    for (int i = 1; i < k; ++i) {
      edges.push_back(lo + (hi - lo) * static_cast<double>(i) /
                               static_cast<double>(k));
    }
  } else {
    std::size_t done = 0;   // index of the last selected order statistic
    bool selected = false;  // whether any selection has run yet
    for (int i = 1; i < k; ++i) {
      // Nearest-rank quantile over the (virtually) sorted residuals.
      const auto idx = static_cast<std::size_t>(
          std::min<double>(static_cast<double>(residual.size() - 1),
                           std::floor(static_cast<double>(residual.size()) *
                                      static_cast<double>(i) /
                                      static_cast<double>(k))));
      if (!selected || idx != done) {
        // After a selection at `done`, positions [done, n) hold order
        // statistics done..n-1, so the next one skips that prefix.
        std::nth_element(
            residual.begin() +
                static_cast<std::ptrdiff_t>(selected ? done : 0),
            residual.begin() + static_cast<std::ptrdiff_t>(idx),
            residual.end());
        done = idx;
        selected = true;
      }
      edges.push_back(residual[idx]);
    }
  }
  // Heavy ties produce duplicate edges; merging them collapses empty bins.
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  // An edge at or below the minimum would create an empty first bin.
  while (!edges.empty() && edges.front() <= lo) {
    edges.erase(edges.begin());
  }

  spec.edges = edges;
  for (std::size_t i = 0; i <= edges.size(); ++i) {
    spec.labels.push_back(params.bin_prefix + std::to_string(i + 1));
  }
  return spec;
}

CategoricalColumn apply_bins(const NumericColumn& column, const BinSpec& spec) {
  // Each label is interned once at its first occurrence (preserving the
  // dictionary order a per-row push would produce) and subsequent rows
  // append the cached code — no per-row string materialization or
  // hashing.
  CategoricalColumn out;
  constexpr std::int32_t kUnseen = -2;
  // Slots: 0 = zero bin, 1 = spike bin, 2+i = interval bin i.
  std::vector<std::int32_t> code_of_slot(2 + spec.labels.size(), kUnseen);
  const auto push_slot = [&](std::size_t slot, const std::string& label) {
    std::int32_t& code = code_of_slot[slot];
    if (code == kUnseen) code = out.intern(label);
    out.push_code(code);
  };
  for (double v : column.values) {
    if (std::isnan(v)) {
      out.push_missing();
    } else if (spec.has_zero_bin && v == 0.0) {
      push_slot(0, spec.zero_label);
    } else if (spec.spike_value.has_value() && v == *spec.spike_value) {
      push_slot(1, spec.spike_label);
    } else if (spec.labels.empty()) {
      out.push_missing();
    } else {
      std::size_t bin = static_cast<std::size_t>(
          std::upper_bound(spec.edges.begin(), spec.edges.end(), v) -
          spec.edges.begin());
      if (bin >= spec.labels.size()) bin = spec.labels.size() - 1;
      push_slot(2 + bin, spec.labels[bin]);
    }
  }
  return out;
}

BinSpec bin_column(Table& table, std::string_view name,
                   const BinningParams& params) {
  const NumericColumn& column = table.numeric(name);
  BinSpec spec = fit_bins(column.values, params);
  table.replace_column(name, apply_bins(column, spec));
  return spec;
}

}  // namespace gpumine::prep
