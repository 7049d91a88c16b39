#include "analysis/report.hpp"

#include <algorithm>
#include <cstdio>

namespace gpumine::analysis {
namespace {

std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void append_rules(std::string& out, const std::vector<core::Rule>& rules,
                  const core::ItemCatalog& catalog, const char* prefix,
                  std::size_t max_rows, bool extra) {
  const std::size_t n = std::min(rules.size(), max_rows);
  for (std::size_t i = 0; i < n; ++i) {
    const core::Rule& r = rules[i];
    out += prefix + std::to_string(i + 1) + "  {" +
           catalog.render(r.antecedent) + "} => {" +
           catalog.render(r.consequent) + "}  supp=" + fmt(r.support) +
           " conf=" + fmt(r.confidence) + " lift=" + fmt(r.lift);
    if (extra) {
      out += " lev=" + fmt(r.leverage, 3) + " conv=" + fmt(r.conviction);
    }
    out += "\n";
  }
  if (rules.size() > max_rows) {
    out += "   ... " + std::to_string(rules.size() - max_rows) +
           " more rules elided\n";
  }
}

}  // namespace

std::string render_rule(const core::Rule& rule,
                        const core::ItemCatalog& catalog) {
  return "{" + catalog.render(rule.antecedent) + "} => {" +
         catalog.render(rule.consequent) + "}";
}

std::string render_rule_table(const core::KeywordAnalysis& analysis,
                              const core::ItemCatalog& catalog,
                              const RuleTableOptions& options) {
  std::string out;
  out += "keyword: " + catalog.name(analysis.keyword) + "\n";
  out += "rules with keyword: " + std::to_string(analysis.prune_stats.input) +
         " -> " + std::to_string(analysis.prune_stats.kept) +
         " after pruning (cond1=" +
         std::to_string(analysis.prune_stats.pruned_by[0]) + " cond2=" +
         std::to_string(analysis.prune_stats.pruned_by[1]) + " cond3=" +
         std::to_string(analysis.prune_stats.pruned_by[2]) + " cond4=" +
         std::to_string(analysis.prune_stats.pruned_by[3]) + ")\n";
  out += "-- cause analysis (keyword in consequent) --\n";
  append_rules(out, analysis.cause, catalog, "C", options.max_cause,
               options.show_extra_metrics);
  out += "-- characteristic analysis (keyword in antecedent) --\n";
  append_rules(out, analysis.characteristic, catalog, "A",
               options.max_characteristic, options.show_extra_metrics);
  return out;
}

std::string render_box(const BoxStats& stats, const std::string& label) {
  return label + ": min=" + fmt(stats.min) + " q1=" + fmt(stats.q1) +
         " median=" + fmt(stats.median) + " q3=" + fmt(stats.q3) +
         " max=" + fmt(stats.max) + " (n=" + std::to_string(stats.count) +
         ")";
}

}  // namespace gpumine::analysis
