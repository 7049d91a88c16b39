#include "analysis/classifier.hpp"

#include <algorithm>

#include "common/ensure.hpp"

namespace gpumine::analysis {

void ClassifierParams::validate() const {
  GPUMINE_CHECK_ARG(min_confidence >= 0.0 && min_confidence <= 1.0,
                    "min_confidence must be in [0, 1]");
}

RuleClassifier::RuleClassifier(std::vector<core::Rule> rules,
                               core::ItemId target,
                               const ClassifierParams& params)
    : target_(target), default_positive_(params.default_positive) {
  params.validate();
  for (auto& r : rules) {
    if (r.confidence + 1e-12 < params.min_confidence) continue;
    if (!core::contains(r.consequent, target)) continue;
    // No label leakage is possible past this point: antecedent and
    // consequent are disjoint by construction (core::make_rule), so a
    // rule with the target in its consequent cannot match on the target.
    rules_.push_back(std::move(r));
  }
  // CBA precedence: confidence desc, lift desc, support desc, shorter
  // antecedent first, then lexicographic for determinism.
  std::sort(rules_.begin(), rules_.end(),
            [](const core::Rule& a, const core::Rule& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              if (a.lift != b.lift) return a.lift > b.lift;
              if (a.support != b.support) return a.support > b.support;
              if (a.antecedent.size() != b.antecedent.size()) {
                return a.antecedent.size() < b.antecedent.size();
              }
              return a.antecedent < b.antecedent;
            });
}

std::size_t RuleClassifier::explain(
    std::span<const core::ItemId> transaction) const {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (core::is_subset(rules_[i].antecedent, transaction)) return i;
  }
  return kNoRule;
}

bool RuleClassifier::predict(
    std::span<const core::ItemId> transaction) const {
  const std::size_t rule = explain(transaction);
  return rule == kNoRule ? default_positive_ : true;
}

double Evaluation::accuracy() const {
  const std::size_t total =
      true_positives + false_positives + true_negatives + false_negatives;
  return total == 0 ? 0.0
                    : static_cast<double>(true_positives + true_negatives) /
                          static_cast<double>(total);
}

double Evaluation::precision() const {
  const std::size_t predicted = true_positives + false_positives;
  return predicted == 0 ? 0.0
                        : static_cast<double>(true_positives) /
                              static_cast<double>(predicted);
}

double Evaluation::recall() const {
  const std::size_t actual = true_positives + false_negatives;
  return actual == 0 ? 0.0
                     : static_cast<double>(true_positives) /
                           static_cast<double>(actual);
}

double Evaluation::f1() const {
  const double p = precision();
  const double r = recall();
  return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

Evaluation evaluate(const RuleClassifier& classifier,
                    const core::TransactionDb& db) {
  Evaluation eval;
  for (std::size_t t = 0; t < db.size(); ++t) {
    const auto txn = db[t];
    const bool actual = core::contains(txn, classifier.target());
    const bool predicted = classifier.predict(txn);
    if (actual && predicted) {
      ++eval.true_positives;
    } else if (!actual && predicted) {
      ++eval.false_positives;
    } else if (!actual && !predicted) {
      ++eval.true_negatives;
    } else {
      ++eval.false_negatives;
    }
  }
  return eval;
}

}  // namespace gpumine::analysis
