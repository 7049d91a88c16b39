// Discretization of continuous features (paper Sec. III-E).
//
// The paper uses equal-frequency binning into quartiles:
//   Bin1 [min, p25)   Bin2 [p25, median)   Bin3 [median, p75)
//   Bin4 [p75, max]
// with two datacenter-specific refinements observed in the case studies:
//   * a dedicated bin for exact zeros when a large mass of jobs measures
//     exactly 0 (e.g. "SM Util = 0%", 46% of PAI jobs);
//   * a dedicated "Std" bin when one exact value dominates a *request*
//     column (e.g. ~50% of PAI jobs request the standard 600 CPU cores).
// Equal-width binning is provided as the ablation baseline the paper
// rejects (long-tailed features leave upper bins empty).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "prep/table.hpp"

namespace gpumine::prep {

struct BinningParams {
  /// Number of equal-frequency (or equal-width) bins. Paper: 4.
  int num_bins = 4;
  /// Create a dedicated zero bin when at least this fraction of the
  /// non-missing values are exactly 0. Set > 1 to disable.
  double zero_mass_threshold = 0.25;
  /// Create a dedicated spike ("Std") bin when a single non-zero exact
  /// value holds at least this fraction of the non-missing values.
  /// Set > 1 to disable.
  double spike_mass_threshold = 0.40;
  /// Equal-width instead of equal-frequency edges (ablation baseline).
  bool equal_width = false;
  /// Label of the zero bin ("0%" for utilizations, "0GB" for memory...).
  std::string zero_label = "0%";
  /// Label of the spike bin.
  std::string spike_label = "Std";
  /// Prefix of interval labels: "Bin" -> Bin1..Bin4.
  std::string bin_prefix = "Bin";

  void validate() const;
};

/// A fitted discretization: apply with `apply_bins`.
struct BinSpec {
  bool has_zero_bin = false;
  std::optional<double> spike_value;  // exact match -> spike label
  /// Interior edges, ascending; labels.size() == edges.size() + 1.
  std::vector<double> edges;
  std::vector<std::string> labels;
  std::string zero_label;
  std::string spike_label;

  /// Total number of distinct labels this spec can emit.
  [[nodiscard]] std::size_t num_bins() const;
};

/// Fits a discretization over `values` (NaNs skipped). Degenerate inputs
/// collapse gracefully: constant columns yield a single bin; heavy ties
/// merge duplicate quantile edges and renumber the surviving bins.
[[nodiscard]] BinSpec fit_bins(std::span<const double> values,
                               const BinningParams& params);

/// Applies a fitted spec row-wise, producing a categorical column.
[[nodiscard]] CategoricalColumn apply_bins(const NumericColumn& column,
                                           const BinSpec& spec);

/// Convenience: fit + apply + replace the column inside `table`.
/// Returns the spec used (for reports and tests).
BinSpec bin_column(Table& table, std::string_view name,
                   const BinningParams& params);

}  // namespace gpumine::prep
