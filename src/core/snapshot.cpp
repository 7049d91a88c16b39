#include "core/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "common/trace.hpp"
#include "core/support_index.hpp"

namespace gpumine::core {
namespace {

constexpr char kMagic[8] = {'G', 'P', 'M', 'S', 'N', 'A', 'P', '2'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;
constexpr std::uint64_t kReadChunkBytes = 1 << 20;

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

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

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

Error corrupt(const std::string& section, const std::string& message) {
  return Error{"snapshot " + section, message};
}

// Bounds-checked little-endian reader over the verified payload.
class Cursor {
 public:
  explicit Cursor(const std::string& bytes) : bytes_(bytes) {}

  [[nodiscard]] bool read_u32(std::uint32_t& out) {
    std::uint64_t wide = 0;
    if (!read_le(4, wide)) return false;
    out = static_cast<std::uint32_t>(wide);
    return true;
  }

  [[nodiscard]] bool read_u64(std::uint64_t& out) { return read_le(8, out); }

  [[nodiscard]] bool read_f64(double& out) {
    std::uint64_t bits = 0;
    if (!read_le(8, bits)) return false;
    out = std::bit_cast<double>(bits);
    return true;
  }

  [[nodiscard]] bool read_bytes(std::size_t n, std::string& out) {
    if (remaining() < n) return false;
    out.assign(bytes_, pos_, n);
    pos_ += n;
    return true;
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  [[nodiscard]] bool read_le(std::size_t n, std::uint64_t& out) {
    if (remaining() < n) return false;
    out = 0;
    for (std::size_t i = 0; i < n; ++i) {
      out |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes_[pos_ + i]))
             << (8 * i);
    }
    pos_ += n;
    return true;
  }

  const std::string& bytes_;
  std::size_t pos_ = 0;
};

// Reads one id list (u32 length + ids), validating range and canonical
// form. `what` names the section for error messages.
Result<Itemset> read_itemset(Cursor& cursor, std::uint32_t item_count,
                             const char* what) {
  std::uint32_t k = 0;
  if (!cursor.read_u32(k)) return corrupt(what, "truncated length");
  // Each id costs 4 bytes; a length that cannot fit in the remaining
  // payload is corruption, caught before any allocation.
  if (cursor.remaining() / 4 < k) {
    return corrupt(what, "length exceeds payload");
  }
  Itemset items;
  items.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    std::uint32_t id = 0;
    if (!cursor.read_u32(id)) return corrupt(what, "truncated item id");
    if (id >= item_count) return corrupt(what, "item id out of range");
    items.push_back(static_cast<ItemId>(id));
  }
  if (!is_canonical(items)) return corrupt(what, "itemset not canonical");
  return items;
}

}  // namespace

RuleSnapshot build_rule_snapshot(MiningResult result, ItemCatalog catalog,
                                 const RuleParams& rule_params,
                                 const PruneParams& prune_params) {
  RuleSnapshot snapshot;
  snapshot.rule_params = rule_params;
  snapshot.prune_params = prune_params;
  const SupportIndex index(result);
  snapshot.rules = generate_rules(result, rule_params, index);
  snapshot.result = std::move(result);
  snapshot.catalog = std::move(catalog);
  return snapshot;
}

void save_rule_snapshot(const RuleSnapshot& snapshot, std::ostream& out) {
  std::string payload;
  put_u64(payload, snapshot.result.db_size);
  put_f64(payload, snapshot.rule_params.min_confidence);
  put_f64(payload, snapshot.rule_params.min_lift);
  put_f64(payload, snapshot.prune_params.c_lift);
  put_f64(payload, snapshot.prune_params.c_supp);

  put_u32(payload, static_cast<std::uint32_t>(snapshot.catalog.size()));
  for (ItemId id = 0; id < snapshot.catalog.size(); ++id) {
    const std::string& name = snapshot.catalog.name(id);
    put_u32(payload, static_cast<std::uint32_t>(name.size()));
    payload += name;
  }

  put_u64(payload, snapshot.result.itemsets.size());
  for (const FrequentItemset& fi : snapshot.result.itemsets) {
    put_u64(payload, fi.count);
    put_u32(payload, static_cast<std::uint32_t>(fi.items.size()));
    for (ItemId id : fi.items) put_u32(payload, id);
  }

  put_u64(payload, snapshot.rules.size());
  for (const Rule& rule : snapshot.rules) {
    put_u64(payload, rule.count);
    put_u32(payload, static_cast<std::uint32_t>(rule.antecedent.size()));
    for (ItemId id : rule.antecedent) put_u32(payload, id);
    put_u32(payload, static_cast<std::uint32_t>(rule.consequent.size()));
    for (ItemId id : rule.consequent) put_u32(payload, id);
  }

  std::string header;
  header.append(kMagic, sizeof(kMagic));
  put_u32(header, kRuleSnapshotVersion);
  put_u64(header, payload.size());
  put_u64(header, fnv1a64(payload));
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

Result<RuleSnapshot> load_rule_snapshot(std::istream& in) {
  GPUMINE_SPAN("snapshot/load");
  std::string header(kHeaderBytes, '\0');
  in.read(header.data(), static_cast<std::streamsize>(kHeaderBytes));
  header.resize(static_cast<std::size_t>(in.gcount()));
  Cursor fields(header);
  std::string magic;
  std::uint32_t version = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;
  if (!fields.read_bytes(sizeof(kMagic), magic) || !fields.read_u32(version) ||
      !fields.read_u64(payload_size) || !fields.read_u64(checksum)) {
    return corrupt("header", "truncated (shorter than the header)");
  }
  if (magic != std::string_view(kMagic, sizeof(kMagic))) {
    return corrupt("header", "bad magic (not a gpumine v2 snapshot)");
  }
  if (version != kRuleSnapshotVersion) {
    return corrupt("header",
                   "unsupported version " + std::to_string(version));
  }

  // The header's size is a claim, not a promise: read in bounded chunks
  // so memory follows the bytes actually present, never the claim.
  std::string payload;
  while (payload.size() < payload_size) {
    const std::size_t offset = payload.size();
    const std::size_t want =
        std::min<std::uint64_t>(kReadChunkBytes, payload_size - offset);
    payload.resize(offset + want);
    in.read(payload.data() + offset, static_cast<std::streamsize>(want));
    if (static_cast<std::size_t>(in.gcount()) != want) {
      return corrupt("payload", "truncated (payload shorter than header says)");
    }
  }
  if (fnv1a64(payload) != checksum) {
    return corrupt("payload", "checksum mismatch");
  }

  Cursor cursor(payload);
  RuleSnapshot snapshot;
  if (!cursor.read_u64(snapshot.result.db_size)) {
    return corrupt("db_size", "truncated");
  }
  if (!cursor.read_f64(snapshot.rule_params.min_confidence) ||
      !cursor.read_f64(snapshot.rule_params.min_lift) ||
      !cursor.read_f64(snapshot.prune_params.c_lift) ||
      !cursor.read_f64(snapshot.prune_params.c_supp)) {
    return corrupt("params", "truncated");
  }
  // Serving prunes with these; out-of-range values would throw there.
  try {
    snapshot.rule_params.validate();
    snapshot.prune_params.validate();
  } catch (const std::invalid_argument& e) {
    return corrupt("params", e.what());
  }

  std::uint32_t item_count = 0;
  if (!cursor.read_u32(item_count)) return corrupt("items", "truncated");
  for (std::uint32_t i = 0; i < item_count; ++i) {
    std::uint32_t length = 0;
    if (!cursor.read_u32(length)) return corrupt("items", "truncated");
    std::string name;
    if (!cursor.read_bytes(length, name)) {
      return corrupt("items", "truncated item name");
    }
    if (name.empty()) return corrupt("items", "empty item name");
    if (snapshot.catalog.intern(name) != i) {
      return corrupt("items", "duplicate item name '" + name + "'");
    }
  }

  std::uint64_t itemset_count = 0;
  if (!cursor.read_u64(itemset_count)) return corrupt("itemsets", "truncated");
  if (cursor.remaining() / 8 < itemset_count) {
    return corrupt("itemsets", "count exceeds payload");
  }
  snapshot.result.itemsets.reserve(static_cast<std::size_t>(itemset_count));
  for (std::uint64_t i = 0; i < itemset_count; ++i) {
    std::uint64_t count = 0;
    if (!cursor.read_u64(count)) return corrupt("itemsets", "truncated");
    if (count > snapshot.result.db_size) {
      return corrupt("itemsets", "support count exceeds db_size");
    }
    auto items = read_itemset(cursor, item_count, "itemsets");
    if (!items.ok()) return items.error();
    snapshot.result.itemsets.push_back({std::move(items).value(), count});
  }

  // Rule generation prices every antecedent and consequent from the
  // family, so it must be downward closed: by induction over the
  // (k-1)-subsets, every subset is present and at least as frequent.
  const SupportIndex index(snapshot.result);
  Itemset subset;
  for (const FrequentItemset& fi : snapshot.result.itemsets) {
    if (fi.items.size() < 2) continue;
    for (std::size_t drop = 0; drop < fi.items.size(); ++drop) {
      subset.assign(fi.items.begin(), fi.items.end());
      subset.erase(subset.begin() + static_cast<std::ptrdiff_t>(drop));
      const auto count = index.find(subset);
      if (!count) {
        return corrupt("itemsets",
                       "family not downward closed (a subset is missing)");
      }
      if (*count < fi.count) {
        return corrupt("itemsets", "subset less frequent than its superset");
      }
    }
  }

  std::uint64_t rule_count = 0;
  if (!cursor.read_u64(rule_count)) return corrupt("rules", "truncated");
  if (cursor.remaining() / 8 < rule_count) {
    return corrupt("rules", "count exceeds payload");
  }
  if (rule_count > 0 && snapshot.result.db_size == 0) {
    return corrupt("rules", "rules over an empty database");
  }
  snapshot.rules.reserve(static_cast<std::size_t>(rule_count));
  for (std::uint64_t i = 0; i < rule_count; ++i) {
    std::uint64_t joint_count = 0;
    if (!cursor.read_u64(joint_count)) return corrupt("rules", "truncated");
    if (joint_count > snapshot.result.db_size) {
      return corrupt("rules", "joint count exceeds db_size");
    }
    auto antecedent = read_itemset(cursor, item_count, "rules");
    if (!antecedent.ok()) return antecedent.error();
    auto consequent = read_itemset(cursor, item_count, "rules");
    if (!consequent.ok()) return consequent.error();
    Itemset x = std::move(antecedent).value();
    Itemset y = std::move(consequent).value();
    if (x.empty() || y.empty()) {
      return corrupt("rules", "empty rule side");
    }
    if (!disjoint(x, y)) {
      return corrupt("rules", "rule sides are not disjoint");
    }
    // Metrics are derived, not stored: both sides of a generated rule
    // are frequent, so the itemset family itself prices them.
    const auto x_count = index.find(x);
    const auto y_count = index.find(y);
    if (!x_count || !y_count) {
      return corrupt("rules", "rule side not among the frequent itemsets");
    }
    if (joint_count > *x_count || joint_count > *y_count) {
      return corrupt("rules", "joint count exceeds a side's support");
    }
    Rule rule = make_rule(std::move(x), std::move(y), joint_count, *x_count,
                          *y_count, snapshot.result.db_size);
    // Consumers rely on sort_rules order; strictness also rules out a
    // repeated rule.
    if (!snapshot.rules.empty() && !rule_before(snapshot.rules.back(), rule)) {
      return corrupt("rules", "rules out of order or repeated");
    }
    snapshot.rules.push_back(std::move(rule));
  }
  if (cursor.remaining() != 0) {
    return corrupt("payload", "trailing bytes after the rule table");
  }
  return snapshot;
}

Result<bool> save_rule_snapshot_file(const RuleSnapshot& snapshot,
                                     const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Error{path, "cannot open file for writing"};
  save_rule_snapshot(snapshot, out);
  // close() flushes and surfaces deferred failures (e.g. ENOSPC reported
  // only when the last buffer hits the disk).
  out.close();
  if (out.fail()) return Error{path, "write failed"};
  return true;
}

Result<RuleSnapshot> load_rule_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error{path, "cannot open file"};
  auto loaded = load_rule_snapshot(in);
  if (!loaded.ok()) {
    return Error{path + ": " + loaded.error().context,
                 loaded.error().message};
  }
  return loaded;
}

}  // namespace gpumine::core
