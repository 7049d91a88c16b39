#include "analysis/export.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/json.hpp"

namespace gpumine::analysis {
namespace {

core::ItemCatalog toy_catalog() {
  core::ItemCatalog catalog;
  catalog.intern("SM Util = 0%");    // 0
  catalog.intern("Failed");          // 1
  catalog.intern("GPU Type = T4");   // 2
  return catalog;
}

core::KeywordAnalysis toy_analysis() {
  core::KeywordAnalysis a;
  a.keyword = 1;
  a.cause.push_back(core::make_rule({0}, {1}, 30, 50, 100, 1000));
  a.cause.push_back(core::make_rule({0, 2}, {1}, 20, 25, 100, 1000));
  a.characteristic.push_back(core::make_rule({1}, {0, 2}, 20, 100, 40, 1000));
  return a;
}

TEST(ExportCsv, HeaderAndRows) {
  const std::string csv = rules_to_csv(toy_analysis(), toy_catalog());
  EXPECT_NE(csv.find("kind,antecedent,consequent,support,confidence,lift,"
                     "leverage,conviction\n"),
            std::string::npos);
  EXPECT_NE(csv.find("C,SM Util = 0%,Failed,0.03,0.6,6,"), std::string::npos);
  EXPECT_NE(csv.find("C,SM Util = 0% + GPU Type = T4,Failed,"),
            std::string::npos);
  EXPECT_NE(csv.find("A,Failed,SM Util = 0% + GPU Type = T4,"),
            std::string::npos);
  // 1 header + 3 rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(ExportCsv, QuotesFieldsWithCommas) {
  core::ItemCatalog catalog;
  catalog.intern("weird, item");
  catalog.intern("Failed");
  core::KeywordAnalysis a;
  a.keyword = 1;
  a.cause.push_back(core::make_rule({0}, {1}, 10, 20, 30, 100));
  const std::string csv = rules_to_csv(a, catalog);
  EXPECT_NE(csv.find("\"weird, item\""), std::string::npos);
}

TEST(ExportCsv, InfiniteConvictionRendered) {
  core::KeywordAnalysis a;
  a.keyword = 1;
  a.cause.push_back(
      core::make_rule({0}, {1}, 50, 50, 100, 1000));  // conf 1 -> conv inf
  const std::string csv = rules_to_csv(a, toy_catalog());
  EXPECT_NE(csv.find(",inf\n"), std::string::npos);
}

TEST(ExportJson, StructureAndValues) {
  const std::string json = rules_to_json(toy_analysis(), toy_catalog());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"keyword\":\"Failed\""), std::string::npos);
  EXPECT_NE(json.find("\"cause\":[{\"antecedent\":[\"SM Util = 0%\"]"),
            std::string::npos);
  EXPECT_NE(json.find("\"confidence\":0.6"), std::string::npos);
  EXPECT_NE(json.find("\"characteristic\":[{"), std::string::npos);
}

TEST(ExportJson, EmptyAnalysis) {
  core::KeywordAnalysis a;
  a.keyword = 0;
  const std::string json = rules_to_json(a, toy_catalog());
  EXPECT_NE(json.find("\"cause\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"characteristic\":[]"), std::string::npos);
}

// The one JSON escaper (common/json.hpp), which rules JSON goes through.
std::string json_escape(std::string_view text) {
  std::string out;
  append_json_escaped(out, text);
  return out;
}

TEST(JsonEscape, AllClasses) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape("ünïcode"), "ünïcode");  // bytes pass through
  // Well-formed 2-, 3- and 4-byte sequences, up to U+10FFFF, pass
  // through unchanged.
  EXPECT_EQ(json_escape("\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80"),
            "\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80");
  EXPECT_EQ(json_escape("\xf4\x8f\xbf\xbf"), "\xf4\x8f\xbf\xbf");
  // Each byte outside a well-formed sequence becomes U+FFFD: 0xFF, a lone
  // continuation byte, an overlong NUL, a surrogate, a code point above
  // U+10FFFF and a sequence cut short by the end of the input.
  const std::string bad = "\\ufffd";
  EXPECT_EQ(json_escape("a\xffz"), "a" + bad + "z");
  EXPECT_EQ(json_escape("\x80"), bad);
  EXPECT_EQ(json_escape("\xc0\x80"), bad + bad);
  EXPECT_EQ(json_escape("\xed\xa0\x80"), bad + bad + bad);
  EXPECT_EQ(json_escape("\xf4\x90\x80\x80"), bad + bad + bad + bad);
  EXPECT_EQ(json_escape("x\xe2\x82"), "x" + bad + bad);
}

TEST(ExportMarkdown, PaperTableLayout) {
  const std::string md = rules_to_markdown(toy_analysis(), toy_catalog());
  EXPECT_NE(md.find("| | Antecedent | Consequent | Supp. | Conf. | Lift |"),
            std::string::npos);
  EXPECT_NE(md.find("| C1 | SM Util = 0% | Failed | 0.03 | 0.60 | 6.00 |"),
            std::string::npos);
  EXPECT_NE(md.find("| A1 | Failed | SM Util = 0%, GPU Type = T4 |"),
            std::string::npos);
}

TEST(ExportMarkdown, RespectsRowCap) {
  auto a = toy_analysis();
  for (int i = 0; i < 30; ++i) a.cause.push_back(a.cause.front());
  const std::string md = rules_to_markdown(a, toy_catalog(), 3);
  EXPECT_NE(md.find("| C3 |"), std::string::npos);
  EXPECT_EQ(md.find("| C4 |"), std::string::npos);
}

TEST(ExportMarkdown, EscapesPipes) {
  core::ItemCatalog catalog;
  catalog.intern("a|b");
  catalog.intern("Failed");
  core::KeywordAnalysis a;
  a.keyword = 1;
  a.cause.push_back(core::make_rule({0}, {1}, 10, 20, 30, 100));
  const std::string md = rules_to_markdown(a, catalog);
  EXPECT_NE(md.find("a\\|b"), std::string::npos);
}

TEST(Export, Deterministic) {
  const auto a = toy_analysis();
  const auto catalog = toy_catalog();
  EXPECT_EQ(rules_to_csv(a, catalog), rules_to_csv(a, catalog));
  EXPECT_EQ(rules_to_json(a, catalog), rules_to_json(a, catalog));
  EXPECT_EQ(rules_to_markdown(a, catalog), rules_to_markdown(a, catalog));
}

}  // namespace
}  // namespace gpumine::analysis
