#include "analysis/export.hpp"

#include <cstdio>
#include <ranges>

#include "common/json.hpp"

namespace gpumine::analysis {
namespace {

std::string join_items(const core::Itemset& items,
                       const core::ItemCatalog& catalog,
                       const char* separator) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += separator;
    out += catalog.name(items[i]);
  }
  return out;
}

std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += "\"";
  return out;
}

void append_csv_rows(std::string& out, const std::vector<core::Rule>& rules,
                     const char* kind, const core::ItemCatalog& catalog) {
  for (const core::Rule& r : rules) {
    out += kind;
    out += ',';
    out += csv_field(join_items(r.antecedent, catalog, " + "));
    out += ',';
    out += csv_field(join_items(r.consequent, catalog, " + "));
    out += ',';
    append_real(out, r.support);
    out += ',';
    append_real(out, r.confidence);
    out += ',';
    append_real(out, r.lift);
    out += ',';
    append_real(out, r.leverage);
    out += ',';
    append_real(out, r.conviction);
    out += '\n';
  }
}

void append_json_items(std::string& out, const core::Itemset& items,
                       const core::ItemCatalog& catalog) {
  out += '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    append_json_escaped(out, catalog.name(items[i]));
    out += '"';
  }
  out += ']';
}

// Any range of rules: a KeywordAnalysis list or a view over indices.
template <typename Rules>
void append_json_rules(std::string& out, Rules&& rules,
                       const core::ItemCatalog& catalog) {
  out += '[';
  bool first = true;
  for (const core::Rule& r : rules) {
    if (!first) out += ',';
    first = false;
    out += "{\"antecedent\":";
    append_json_items(out, r.antecedent, catalog);
    out += ",\"consequent\":";
    append_json_items(out, r.consequent, catalog);
    out += ",\"support\":";
    append_real(out, r.support);
    out += ",\"confidence\":";
    append_real(out, r.confidence);
    out += ",\"lift\":";
    append_real(out, r.lift);
    out += '}';
  }
  out += ']';
}

std::string md_escape(std::string s) {
  std::string out;
  for (char c : s) {
    if (c == '|') out += '\\';
    out += c;
  }
  return out;
}

template <typename Cause, typename Characteristic>
std::string keyword_json(core::ItemId keyword, Cause&& cause,
                         Characteristic&& characteristic,
                         const core::ItemCatalog& catalog) {
  std::string out = "{\"keyword\":\"";
  append_json_escaped(out, catalog.name(keyword));
  out += "\",\"cause\":";
  append_json_rules(out, cause, catalog);
  out += ",\"characteristic\":";
  append_json_rules(out, characteristic, catalog);
  out += "}";
  return out;
}

}  // namespace

std::string rules_to_csv(const core::KeywordAnalysis& analysis,
                         const core::ItemCatalog& catalog) {
  std::string out =
      "kind,antecedent,consequent,support,confidence,lift,leverage,"
      "conviction\n";
  append_csv_rows(out, analysis.cause, "C", catalog);
  append_csv_rows(out, analysis.characteristic, "A", catalog);
  return out;
}

std::string rules_to_json(const core::KeywordAnalysis& analysis,
                          const core::ItemCatalog& catalog) {
  return keyword_json(analysis.keyword, analysis.cause,
                      analysis.characteristic, catalog);
}

std::string rules_to_json(core::ItemId keyword,
                          const std::vector<core::Rule>& rules,
                          std::span<const std::uint32_t> survivors,
                          const core::ItemCatalog& catalog) {
  const auto side = [&](bool cause) {
    return survivors |
           std::views::transform(
               [&](std::uint32_t i) -> const core::Rule& { return rules[i]; }) |
           std::views::filter([keyword, cause](const core::Rule& r) {
             return core::contains(r.consequent, keyword) == cause;
           });
  };
  return keyword_json(keyword, side(true), side(false), catalog);
}

std::string rules_to_markdown(const core::KeywordAnalysis& analysis,
                              const core::ItemCatalog& catalog,
                              std::size_t max_rows_per_side) {
  std::string out = "| | Antecedent | Consequent | Supp. | Conf. | Lift |\n";
  out += "|---|---|---|---|---|---|\n";
  const auto emit = [&](const std::vector<core::Rule>& rules,
                        const char* prefix) {
    const std::size_t n = std::min(rules.size(), max_rows_per_side);
    for (std::size_t i = 0; i < n; ++i) {
      const core::Rule& r = rules[i];
      out += "| ";
      out += prefix + std::to_string(i + 1);
      out += " | " + md_escape(join_items(r.antecedent, catalog, ", "));
      out += " | " + md_escape(join_items(r.consequent, catalog, ", "));
      char buf[64];
      std::snprintf(buf, sizeof(buf), " | %.2f | %.2f | %.2f |\n", r.support,
                    r.confidence, r.lift);
      out += buf;
    }
  };
  emit(analysis.cause, "C");
  emit(analysis.characteristic, "A");
  return out;
}

}  // namespace gpumine::analysis
