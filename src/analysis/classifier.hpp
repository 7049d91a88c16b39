// Rule-based classification (CBA-style), operationalizing the paper's
// takeaways: "a simple rule-based or tree-based classifier will suffice
// for prediction of job failures" on PAI, while "more complex models
// will be needed" for SuperCloud and Philly (Sec. IV-C). The
// ext_failure_prediction bench measures exactly that gap.
//
// The classifier consumes *cause rules* (target item in the consequent)
// from a keyword analysis, orders them by precedence (confidence, then
// lift, then support, then shorter antecedent), and classifies a
// transaction by the first rule whose antecedent it satisfies. No match
// falls through to the configured default.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/itemset.hpp"
#include "core/rules.hpp"
#include "core/transaction_db.hpp"

namespace gpumine::analysis {

struct ClassifierParams {
  /// Rules below this confidence are not used for prediction.
  double min_confidence = 0.5;
  /// Prediction when no rule matches.
  bool default_positive = false;

  /// Throws std::invalid_argument unless min_confidence is in [0, 1].
  void validate() const;
};

class RuleClassifier {
 public:
  /// `rules` should contain cause rules for `target` (target item in the
  /// consequent); rules whose consequent lacks the target or whose
  /// confidence is below the threshold are ignored. The kept rules are
  /// sorted into precedence order.
  RuleClassifier(std::vector<core::Rule> rules, core::ItemId target,
                 const ClassifierParams& params = {});

  /// True = target predicted present. The target item itself is ignored
  /// if it appears in `transaction` (no label leakage).
  [[nodiscard]] bool predict(std::span<const core::ItemId> transaction) const;

  /// Index of the first matching rule, or npos when the default fired —
  /// the interpretability hook: every positive prediction names its rule.
  static constexpr std::size_t kNoRule = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t explain(
      std::span<const core::ItemId> transaction) const;

  [[nodiscard]] const std::vector<core::Rule>& rules() const { return rules_; }
  [[nodiscard]] core::ItemId target() const { return target_; }

 private:
  std::vector<core::Rule> rules_;
  core::ItemId target_;
  bool default_positive_;
};

/// Binary-classification quality over a labeled database: ground truth =
/// presence of the target item in the transaction.
struct Evaluation {
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t true_negatives = 0;
  std::size_t false_negatives = 0;

  [[nodiscard]] double accuracy() const;
  [[nodiscard]] double precision() const;
  [[nodiscard]] double recall() const;
  [[nodiscard]] double f1() const;
};

[[nodiscard]] Evaluation evaluate(const RuleClassifier& classifier,
                                  const core::TransactionDb& db);

}  // namespace gpumine::analysis
