#include "core/snapshot.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/fpgrowth.hpp"
#include "core/miner.hpp"
#include "mining_test_util.hpp"
#include "oracle/itemsets.hpp"

namespace gpumine::core {
namespace {

std::pair<MiningResult, ItemCatalog> mined_fixture(std::uint64_t seed = 4) {
  ItemCatalog catalog;
  catalog.intern("Failed");
  catalog.intern("Multi-GPU");
  catalog.intern("SM Util = 0%");
  catalog.intern("GMem = 0%");
  const auto db = testutil::random_db(seed, /*num_txns=*/120,
                                      /*num_items=*/4);
  MiningParams params;
  params.min_support = 0.1;
  return {mine_fpgrowth(db, params), std::move(catalog)};
}

RuleSnapshot snapshot_fixture(std::uint64_t seed = 4) {
  auto [result, catalog] = mined_fixture(seed);
  RuleParams rules;
  rules.min_lift = 0.0;  // keep everything; more rules to round-trip
  return build_rule_snapshot(std::move(result), std::move(catalog), rules,
                             PruneParams{});
}

// A mined family saved without rules, as `itemsets --save` writes it.
// The catalog also holds names that appear in no itemset, with spaces.
RuleSnapshot itemsets_fixture() {
  auto [result, catalog] = mined_fixture();
  catalog.intern("GPU Type = None T4");
  catalog.intern(" Queue  = leading and trailing spaces ");
  RuleSnapshot archive;
  archive.result = std::move(result);
  archive.catalog = std::move(catalog);
  return archive;
}

std::string snapshot_bytes(const RuleSnapshot& snapshot) {
  std::ostringstream out;
  save_rule_snapshot(snapshot, out);
  return out.str();
}

Result<RuleSnapshot> load_bytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return load_rule_snapshot(in);
}

/// Rule lists equal field for field; EXPECT_EQ on the doubles asserts
/// bit identity, not closeness.
void expect_same_rules(const std::vector<Rule>& actual,
                       const std::vector<Rule>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].antecedent, expected[i].antecedent) << "rule " << i;
    EXPECT_EQ(actual[i].consequent, expected[i].consequent);
    EXPECT_EQ(actual[i].count, expected[i].count);
    EXPECT_EQ(actual[i].support, expected[i].support);
    EXPECT_EQ(actual[i].confidence, expected[i].confidence);
    EXPECT_EQ(actual[i].lift, expected[i].lift);
    EXPECT_EQ(actual[i].leverage, expected[i].leverage);
    EXPECT_EQ(actual[i].conviction, expected[i].conviction);
  }
}

// ---------------------------------------------------------------------
// Little-endian builders mirroring the on-disk format, for crafting
// corrupt payloads that still carry a valid checksum.

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

void put_ids(std::string& out, const Itemset& ids) {
  put_u32(out, static_cast<std::uint32_t>(ids.size()));
  for (const ItemId id : ids) put_u32(out, id);
}

/// One rule-table entry: joint count, antecedent, consequent.
void put_rule(std::string& out, std::uint64_t joint, const Itemset& x,
              const Itemset& y) {
  put_u64(out, joint);
  put_ids(out, x);
  put_ids(out, y);
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Wraps a payload in a well-formed header (magic, version, size,
/// checksum) so corruption tests reach the section parsers.
std::string frame(const std::string& payload,
                  std::uint32_t version = kRuleSnapshotVersion) {
  std::string out = "GPMSNAP2";
  put_u32(out, version);
  put_u64(out, payload.size());
  put_u64(out, fnv1a64(payload));
  return out + payload;
}

/// Payload through the item table: db_size, in-range params (min
/// confidence 0, min lift 0, c_supp 1.5, c_lift as given), names.
std::string payload_prefix(const std::vector<std::string>& names = {"a"},
                           std::uint64_t db_size = 10, double c_lift = 1.5) {
  std::string p;
  put_u64(p, db_size);
  for (const double param : {0.0, 0.0, c_lift, 1.5}) {
    put_u64(p, std::bit_cast<std::uint64_t>(param));
  }
  put_u32(p, static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) {
    put_u32(p, static_cast<std::uint32_t>(name.size()));
    p += name;
  }
  return p;
}

/// payload_prefix, then the itemset table; the rule table is the
/// caller's.
std::string family_payload(const std::vector<std::string>& names,
                           const std::vector<FrequentItemset>& itemsets,
                           std::uint64_t db_size = 10) {
  std::string p = payload_prefix(names, db_size);
  put_u64(p, itemsets.size());
  for (const FrequentItemset& fi : itemsets) {
    put_u64(p, fi.count);
    put_ids(p, fi.items);
  }
  return p;
}

/// Items {a, b} with itemsets {a}:5 {b}:4 {a,b}:3 and one rule.
Result<RuleSnapshot> load_with_rule(std::uint64_t joint, const Itemset& x,
                                    const Itemset& y) {
  std::string p = family_payload({"a", "b"}, {{{0}, 5}, {{1}, 4}, {{0, 1}, 3}});
  put_u64(p, 1);
  put_rule(p, joint, x, y);
  return load_bytes(frame(p));
}

TEST(RuleSnapshot, RoundTripIsBitIdentical) {
  const RuleSnapshot snapshot = snapshot_fixture();
  ASSERT_FALSE(snapshot.rules.empty());
  auto loaded = load_bytes(snapshot_bytes(snapshot));
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  const RuleSnapshot& back = loaded.value();

  EXPECT_TRUE(same_itemsets(back.result, snapshot.result));
  ASSERT_EQ(back.catalog.size(), snapshot.catalog.size());
  for (ItemId id = 0; id < snapshot.catalog.size(); ++id) {
    EXPECT_EQ(back.catalog.name(id), snapshot.catalog.name(id));
  }
  // Metrics are recomputed through make_rule on load.
  expect_same_rules(back.rules, snapshot.rules);
  EXPECT_EQ(back.rule_params.min_confidence,
            snapshot.rule_params.min_confidence);
  EXPECT_EQ(back.rule_params.min_lift, snapshot.rule_params.min_lift);
  EXPECT_EQ(back.prune_params.c_lift, snapshot.prune_params.c_lift);
  EXPECT_EQ(back.prune_params.c_supp, snapshot.prune_params.c_supp);
}

TEST(RuleSnapshot, FileRoundTrip) {
  const RuleSnapshot snapshot = snapshot_fixture();
  const std::string path = ::testing::TempDir() + "/gpumine_rules.snap";
  const auto saved = save_rule_snapshot_file(snapshot, path);
  ASSERT_TRUE(saved.ok()) << saved.error().to_string();
  auto loaded = load_rule_snapshot_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_EQ(loaded.value().rules.size(), snapshot.rules.size());
}

TEST(RuleSnapshot, MissingFile) {
  EXPECT_FALSE(load_rule_snapshot_file("/no/such/file.snap").ok());
}

TEST(RuleSnapshot, SaveToUnwritablePathFails) {
  // A directory path: the stream never opens (or every write fails).
  const auto saved =
      save_rule_snapshot_file(snapshot_fixture(), ::testing::TempDir());
  EXPECT_FALSE(saved.ok());
}

// ---------------------------------------------------------------------
// A mined family saved without rules (`itemsets --save`), replayed by
// `mine --load`, `compare` and `snapshot --from-itemsets`.

TEST(Serialize, RoundTripPreservesEverything) {
  const RuleSnapshot archive = itemsets_fixture();
  const std::string bytes = snapshot_bytes(archive);
  auto loaded = load_bytes(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  const RuleSnapshot& back = loaded.value();
  EXPECT_TRUE(same_itemsets(back.result, archive.result));
  EXPECT_EQ(back.catalog.size(), archive.catalog.size());
  EXPECT_TRUE(back.rules.empty());
  // Bit for bit, catalog names included: saving the loaded snapshot
  // reproduces the file.
  EXPECT_EQ(snapshot_bytes(back), bytes);
}

TEST(Serialize, ItemNamesWithSpacesSurvive) {
  RuleSnapshot archive;
  archive.catalog.intern("GPU Type = None T4");
  archive.result.db_size = 10;
  archive.result.itemsets.push_back({{0}, 7});
  auto loaded = load_bytes(snapshot_bytes(archive));
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_EQ(loaded.value().catalog.name(0), "GPU Type = None T4");
}

TEST(Serialize, FileRoundTrip) {
  const RuleSnapshot archive = itemsets_fixture();
  const std::string path = ::testing::TempDir() + "/gpumine_itemsets.snap";
  const auto saved = save_rule_snapshot_file(archive, path);
  ASSERT_TRUE(saved.ok()) << saved.error().to_string();
  auto loaded = load_rule_snapshot_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_TRUE(same_itemsets(loaded.value().result, archive.result));
  EXPECT_TRUE(loaded.value().rules.empty());
}

// What `mine --load` relies on: rules regenerated from the loaded family
// equal the rules of the in-memory one, doubles included.
TEST(Serialize, DownstreamRulesIdenticalAfterRoundTrip) {
  const RuleSnapshot archive = itemsets_fixture();
  auto loaded = load_bytes(snapshot_bytes(archive));
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  RuleParams params;
  params.min_lift = 0.0;
  const auto before = generate_rules(archive.result, params);
  ASSERT_FALSE(before.empty());
  expect_same_rules(generate_rules(loaded.value().result, params), before);
}

TEST(Serialize, SaveToUnopenablePathFails) {
  // A directory is not a writable file: open must fail up front.
  const auto saved =
      save_rule_snapshot_file(itemsets_fixture(), ::testing::TempDir());
  ASSERT_FALSE(saved.ok());
  EXPECT_NE(saved.error().message.find("open"), std::string::npos);
}

TEST(Serialize, SaveSurfacesDeferredWriteFailure) {
  // /dev/full opens fine but every flush fails with ENOSPC — the
  // disk-full case where the error only shows up at close().
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  const auto saved = save_rule_snapshot_file(itemsets_fixture(), "/dev/full");
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.error().context, "/dev/full");
  EXPECT_NE(saved.error().message.find("write failed"), std::string::npos);
}

TEST(Deserialize, MissingFile) {
  const auto loaded = load_rule_snapshot_file("/no/such/file");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().context, "/no/such/file");
}

TEST(Deserialize, RejectsMalformedInput) {
  // Files that are not snapshots at all fail on the header, without
  // throwing: short ones as truncated, longer ones on the magic.
  const char* cases[] = {
      "",
      "wrong header\n",
      "GPMSNAP2",
      "a text file longer than a snapshot header\n",
  };
  for (const char* text : cases) {
    const auto loaded = load_bytes(text);
    ASSERT_FALSE(loaded.ok()) << text;
    EXPECT_EQ(loaded.error().context, "snapshot header") << text;
  }
}

TEST(RuleSnapshot, EveryTruncatedPrefixIsRejected) {
  const std::string bytes = snapshot_bytes(snapshot_fixture());
  ASSERT_GT(bytes.size(), 28u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto loaded = load_bytes(bytes.substr(0, len));
    EXPECT_FALSE(loaded.ok()) << "prefix of " << len << " bytes parsed";
  }
  EXPECT_TRUE(load_bytes(bytes).ok());
}

TEST(RuleSnapshot, EveryFlippedPayloadByteIsRejected) {
  // Any payload corruption must die at the checksum, never reach the
  // section parsers. (Header bytes are covered by the magic/version/
  // size checks and the truncation sweep.)
  const std::string bytes = snapshot_bytes(snapshot_fixture());
  constexpr std::size_t kHeaderBytes = 28;
  for (std::size_t pos = kHeaderBytes; pos < bytes.size();
       pos += 97) {  // stride keeps the sweep fast; offsets still vary
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
    auto loaded = load_bytes(mutated);
    ASSERT_FALSE(loaded.ok()) << "flip at byte " << pos << " parsed";
    EXPECT_NE(loaded.error().message.find("checksum"), std::string::npos)
        << loaded.error().to_string();
  }
}

TEST(RuleSnapshot, BadMagicAndVersionAreRejected) {
  const std::string bytes = snapshot_bytes(snapshot_fixture());
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_FALSE(load_bytes(wrong_magic).ok());

  std::string v1_text = "gpumine-itemsets v1\ndb_size 5\n";
  EXPECT_FALSE(load_bytes(v1_text).ok());

  // Version 3 with an otherwise valid frame.
  std::string payload = bytes.substr(28);
  EXPECT_FALSE(load_bytes(frame(payload, 3)).ok());
}

TEST(RuleSnapshot, ItemIdOutOfRangeIsRejected) {
  // Id 7, but only one item exists.
  auto loaded = load_bytes(frame(family_payload({"a"}, {{{7}, 5}})));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().message.find("out of range"), std::string::npos);
}

TEST(RuleSnapshot, SupportCountAboveDbSizeIsRejected) {
  auto loaded = load_bytes(frame(family_payload({"a"}, {{{0}, 11}})));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().message.find("db_size"), std::string::npos);
}

TEST(RuleSnapshot, HugeCountsAreRejectedBeforeAllocation) {
  // A header claiming far more payload than the stream holds is
  // truncation, found while reading in chunks, not a 1 TiB (or 2 EiB)
  // allocation.
  for (const std::uint64_t claimed : {1ull << 40, 1ull << 61}) {
    std::string header = "GPMSNAP2";  // 28 bytes, nothing after
    put_u32(header, kRuleSnapshotVersion);
    put_u64(header, claimed);
    put_u64(header, 0);  // checksum
    const auto loaded = load_bytes(header);
    ASSERT_FALSE(loaded.ok()) << claimed;
    EXPECT_EQ(loaded.error().context, "snapshot payload");
    EXPECT_NE(loaded.error().message.find("truncated"), std::string::npos);
  }

  // An itemset count far beyond what the payload could hold must fail
  // the plausibility check, not attempt a massive reserve.
  std::string p = payload_prefix();
  put_u64(p, 0xffffffffffffffffull);
  auto loaded = load_bytes(frame(p));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().message.find("exceeds payload"),
            std::string::npos);

  // Same for a single itemset claiming more ids than the payload holds.
  std::string q = payload_prefix();
  put_u64(q, 1);
  put_u64(q, 5);
  put_u32(q, 0xffffffffu);  // k
  EXPECT_FALSE(load_bytes(frame(q)).ok());
}

TEST(RuleSnapshot, MalformedRulesAreRejected) {
  // Valid rule {a} => {b}: accepted (metrics recomputed).
  auto ok = load_with_rule(3, {0}, {1});
  ASSERT_TRUE(ok.ok()) << ok.error().to_string();
  ASSERT_EQ(ok.value().rules.size(), 1u);
  EXPECT_DOUBLE_EQ(ok.value().rules[0].confidence, 3.0 / 5.0);

  EXPECT_FALSE(load_with_rule(11, {0}, {1}).ok());    // joint > db_size
  EXPECT_FALSE(load_with_rule(3, {}, {1}).ok());      // empty antecedent
  EXPECT_FALSE(load_with_rule(3, {0}, {0}).ok());     // overlapping sides
  EXPECT_FALSE(load_with_rule(3, {1, 0}, {1}).ok());  // not canonical
  // Joint count above a side's support: sigma({b}) is 4.
  const auto above_side = load_with_rule(5, {0}, {1});
  ASSERT_FALSE(above_side.ok());
  EXPECT_NE(above_side.error().message.find("support"), std::string::npos);

  // Trailing bytes after the rule table.
  std::string trailing =
      family_payload({"a", "b"}, {{{0}, 5}, {{1}, 4}, {{0, 1}, 3}});
  put_u64(trailing, 0);
  trailing += "junk";
  EXPECT_FALSE(load_bytes(frame(trailing)).ok());

  // Rules over an empty database, where every count is 0.
  std::string empty_db = family_payload(
      {"a", "b"}, {{{0}, 0}, {{1}, 0}, {{0, 1}, 0}}, /*db_size=*/0);
  put_u64(empty_db, 1);
  put_rule(empty_db, 0, {0}, {1});
  const auto over_empty = load_bytes(frame(empty_db));
  ASSERT_FALSE(over_empty.ok());
  EXPECT_NE(over_empty.error().message.find("empty database"),
            std::string::npos);
}

/// Items {a, b} with itemsets {a}:5 {b}:4 {a,b}:3 and the given rule
/// table, as (antecedent, consequent) pairs with joint count 3.
Result<RuleSnapshot> load_with_rules(
    const std::vector<std::pair<Itemset, Itemset>>& table) {
  std::string p = family_payload({"a", "b"}, {{{0}, 5}, {{1}, 4}, {{0, 1}, 3}});
  put_u64(p, table.size());
  for (const auto& [x, y] : table) put_rule(p, 3, x, y);
  return load_bytes(frame(p));
}

// The engine renders survivors in file order, so the loader holds the
// rule table to sort_rules order.
TEST(RuleSnapshot, RejectsRulesOutOfOrder) {
  const Rule ab = make_rule({0}, {1}, 3, 5, 4, 10);
  const Rule ba = make_rule({1}, {0}, 3, 4, 5, 10);
  const bool ab_first = rule_before(ab, ba);
  ASSERT_NE(ab_first, rule_before(ba, ab));
  const std::pair<Itemset, Itemset> first{ab_first ? ab.antecedent
                                                   : ba.antecedent,
                                          ab_first ? ab.consequent
                                                   : ba.consequent};
  const std::pair<Itemset, Itemset> second{first.second, first.first};

  const auto ordered = load_with_rules({first, second});
  ASSERT_TRUE(ordered.ok()) << ordered.error().to_string();
  EXPECT_EQ(ordered.value().rules.size(), 2u);

  const auto swapped = load_with_rules({second, first});
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.error().context, "snapshot rules");
  EXPECT_NE(swapped.error().message.find("out of order"), std::string::npos);
}

TEST(RuleSnapshot, RejectsDuplicateRule) {
  const auto repeated = load_with_rules({{{0}, {1}}, {{0}, {1}}});
  ASSERT_FALSE(repeated.ok());
  EXPECT_EQ(repeated.error().context, "snapshot rules");
  EXPECT_NE(repeated.error().message.find("repeated"), std::string::npos);
}

// Rule generation prices every subset of an itemset from the family, so
// a family with a missing or less frequent (k-1)-subset (a closed or
// maximal one, say) is rejected even with a valid checksum.
TEST(RuleSnapshot, FamilyNotDownwardClosedIsRejected) {
  const auto load_family = [](const std::vector<FrequentItemset>& family) {
    std::string p = family_payload({"a", "b"}, family);
    put_u64(p, 0);  // rule count
    return load_bytes(frame(p));
  };
  const auto closed = load_family({{{0}, 5}, {{1}, 4}, {{0, 1}, 3}});
  ASSERT_TRUE(closed.ok()) << closed.error().to_string();

  const auto missing = load_family({{{0}, 5}, {{0, 1}, 3}});
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().message.find("downward closed"), std::string::npos);

  const auto inverted = load_family({{{0}, 2}, {{1}, 4}, {{0, 1}, 3}});
  ASSERT_FALSE(inverted.ok());
  EXPECT_NE(inverted.error().message.find("less frequent"), std::string::npos);
}

TEST(RuleSnapshot, OutOfRangeParamsAreRejected) {
  // Serving prunes with the stored slack factors, which throws on
  // c_lift below 1 or NaN; the loader refuses such a file instead.
  for (const double c_lift : {0.5, std::numeric_limits<double>::quiet_NaN()}) {
    const auto loaded = load_bytes(frame(payload_prefix({}, 10, c_lift)));
    ASSERT_FALSE(loaded.ok()) << c_lift;
    EXPECT_EQ(loaded.error().context, "snapshot params");
  }
}

TEST(RuleSnapshot, RuleSideNotFrequentIsRejected) {
  // Itemset family holds only {a}; a rule touching b has an unpriceable
  // side even though b is in the catalog.
  std::string p = family_payload({"a", "b"}, {{{0}, 5}});
  put_u64(p, 1);
  put_rule(p, 3, {0}, {1});
  auto loaded = load_bytes(frame(p));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().message.find("frequent"), std::string::npos);
}

TEST(RuleSnapshot, DuplicateAndEmptyItemNamesAreRejected) {
  EXPECT_FALSE(load_bytes(frame(payload_prefix({"a", "a"}))).ok());
  EXPECT_FALSE(load_bytes(frame(payload_prefix({""}))).ok());
}

// The property the serve subsystem rests on: the rules stored in a
// snapshot, loaded and pruned per keyword, equal analyze_keyword run on
// the in-memory mining result — same rules, same doubles, same order.
TEST(RuleSnapshot, V1AndV2ProduceIdenticalKeywordAnalysis) {
  for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
    auto [result, catalog] = mined_fixture(seed);
    RuleParams rule_params;
    rule_params.min_lift = 1.0;
    const PruneParams prune_params;

    // Binary snapshot round trip, then prune the stored rules.
    auto v2_loaded = load_bytes(snapshot_bytes(build_rule_snapshot(
        result, catalog, rule_params, prune_params)));
    ASSERT_TRUE(v2_loaded.ok()) << v2_loaded.error().to_string();
    const RuleSnapshot& v2 = v2_loaded.value();

    for (ItemId keyword = 0; keyword < catalog.size(); ++keyword) {
      const KeywordAnalysis expected =
          analyze_keyword(result, keyword, rule_params, prune_params);
      const auto keyed = filter_keyword(v2.rules, keyword);
      const auto pruned = prune_rules(keyed, keyword, v2.prune_params);

      std::vector<Rule> expected_all = expected.cause;
      expected_all.insert(expected_all.end(),
                          expected.characteristic.begin(),
                          expected.characteristic.end());
      sort_rules(expected_all);
      SCOPED_TRACE("seed " + std::to_string(seed) + " keyword " +
                   catalog.name(keyword));
      expect_same_rules(pruned, expected_all);
    }
  }
}

}  // namespace
}  // namespace gpumine::core
