// The seeded request mix that both socket protocols and the in-process
// handler replay.
//
//   90% QUERY    keyword drawn Zipf(1) over the catalog in popularity
//                order: analysts ask about a few keywords most.
//   10% SUPPORT  half a frequent itemset from the snapshot, half a
//                random pair of catalog items.
//
// The popularity order is the name-sorted catalog shuffled with a fixed
// seed that belongs to the workload, not to the run: which keyword is
// the most popular decides the reply-size distribution, and with it
// which of today's two line-latency modes the median falls in. The run
// seed draws the request sequence and the SUPPORT sets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perf_e2e {

struct MixRequest {
  std::string line;    // line-protocol command, no trailing newline
  std::string target;  // HTTP target, percent-encoded
  std::size_t answer;  // index into Mix::targets
  bool query;          // QUERY (true) or SUPPORT (false)
};

struct Mix {
  std::vector<MixRequest> requests;
  /// Distinct HTTP targets of the mix; one expected answer each.
  std::vector<std::string> targets;
  std::size_t num_keywords = 0;
};

/// `items`: catalog names (any order). `itemsets`: frequent itemsets as
/// item names. Items whose name holds a ',' are left out of SUPPORT
/// requests, whose item list is comma-separated.
[[nodiscard]] Mix make_mix(
    const std::vector<std::string>& items,
    const std::vector<std::vector<std::string>>& itemsets, std::uint64_t seed,
    std::size_t length);

/// RFC 3986 percent-encoding of everything but unreserved characters.
[[nodiscard]] std::string percent_encode(const std::string& text);

}  // namespace perf_e2e
