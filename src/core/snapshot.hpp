// RuleSnapshot: gpumine's one on-disk format. It bundles the mined
// itemset family and vocabulary with an optional pre-generated rule
// list, the generation/pruning parameters, and an integrity check so a
// half-written file is rejected instead of used. `itemsets --save`
// writes it with no rules for replay by `mine --load`, `compare` and
// `snapshot --from-itemsets`, which regenerate rules deterministically;
// `snapshot` writes it with rules, so `serve` never enumerates rules.
// The file is a little-endian binary image:
//
//   bytes  0..7   magic "GPMSNAP2"
//   bytes  8..11  u32 format version (2)
//   bytes 12..19  u64 payload size in bytes
//   bytes 20..27  u64 FNV-1a64 checksum of the payload
//   bytes 28..    payload:
//     u64 db_size
//     f64 rule min_confidence, f64 rule min_lift      (as IEEE-754 bits)
//     f64 prune c_lift, f64 prune c_supp
//     u32 item count, then per item: u32 byte length + name bytes
//     u64 itemset count, then per itemset: u64 count, u32 k, k x u32 ids
//     u64 rule count, then per rule: u64 joint count,
//         u32 |antecedent| + ids, u32 |consequent| + ids
//
// Rules store only their structure and joint count: support, confidence,
// lift, leverage and conviction are recomputed on load through
// core::make_rule using the itemset family itself (both rule sides are
// frequent by anti-monotonicity), so a loaded snapshot reproduces the
// generator's doubles bit for bit and the format never carries derived
// data that could drift out of sync.
//
// Loading validates everything: magic, version, payload size vs bytes
// actually present (read in bounded chunks, so the header's claim never
// sizes an allocation), checksum, parameter ranges, dense item ids,
// canonical itemsets, counts within db_size, a downward-closed family
// (every (k-1)-subset of an itemset present and at least as frequent,
// which rule generation relies on), rule sides that exist in the
// family with joint counts within their supports, and a rule table in
// strictly increasing sort_rules order (so no rule repeats). Malformed
// input yields an Error, never an exception.
#pragma once

#include <iosfwd>
#include <string>

#include "common/result.hpp"
#include "core/frequent.hpp"
#include "core/item_catalog.hpp"
#include "core/pruning.hpp"
#include "core/rules.hpp"

namespace gpumine::core {

/// Format version written by save_rule_snapshot; the loader rejects any
/// other, including the retired version 1 text archive.
inline constexpr std::uint32_t kRuleSnapshotVersion = 2;

/// Everything the query path needs, mined and generated ahead of time.
/// A snapshot of a mining result alone leaves `rules` empty.
struct RuleSnapshot {
  MiningResult result;      // frequent-itemset family + db_size
  ItemCatalog catalog;      // full vocabulary (keyword lookups by name)
  std::vector<Rule> rules;  // pre-generated, sort_rules order; may be empty
  RuleParams rule_params;   // thresholds the rules were generated with
  PruneParams prune_params;  // slack factors for per-keyword pruning
};

/// Generates the rule list from `result` (via one shared SupportIndex)
/// and bundles it with the catalog and parameters. `rule_params` is
/// honored including num_threads; the output rule order is deterministic
/// either way.
[[nodiscard]] RuleSnapshot build_rule_snapshot(MiningResult result,
                                               ItemCatalog catalog,
                                               const RuleParams& rule_params,
                                               const PruneParams& prune_params);

/// Writes the binary image described above.
void save_rule_snapshot(const RuleSnapshot& snapshot, std::ostream& out);

/// Parses and validates a binary image, with or without rules; any
/// corruption (truncation, checksum mismatch, out-of-range ids,
/// impossible counts, a family that is not downward closed, rules out
/// of order or repeated) yields an Error naming the offending section.
[[nodiscard]] Result<RuleSnapshot> load_rule_snapshot(std::istream& in);

/// File wrappers. Saving reports stream failures (e.g. a full disk) as
/// an Error, including ones only surfaced when the file is closed.
[[nodiscard]] Result<bool> save_rule_snapshot_file(const RuleSnapshot& snapshot,
                                                   const std::string& path);
[[nodiscard]] Result<RuleSnapshot> load_rule_snapshot_file(
    const std::string& path);

}  // namespace gpumine::core
