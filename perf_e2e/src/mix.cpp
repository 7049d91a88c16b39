#include "mix.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perf_e2e {
namespace {

constexpr std::uint64_t kPopularitySeed = 0x5eed'2024'0001ULL;
constexpr double kQueryShare = 0.9;

// splitmix64: small, fast and identical on every platform (the <random>
// distributions are not).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }

  // Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

template <typename T>
void shuffle(std::vector<T>& values, Rng& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.below(i)]);
  }
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ',';
    out += name;
  }
  return out;
}

bool has_comma(const std::string& name) {
  return name.find(',') != std::string::npos;
}

}  // namespace

std::string percent_encode(const std::string& text) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (const char c : text) {
    const bool unreserved = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                            c == '.' || c == '~';
    if (unreserved) {
      out += c;
    } else {
      const auto byte = static_cast<unsigned char>(c);
      out += '%';
      out += kHex[byte >> 4];
      out += kHex[byte & 0xF];
    }
  }
  return out;
}

Mix make_mix(const std::vector<std::string>& items,
             const std::vector<std::vector<std::string>>& itemsets,
             std::uint64_t seed, std::size_t length) {
  if (items.empty()) throw std::invalid_argument("make_mix: empty catalog");

  std::vector<std::string> popular = items;
  std::sort(popular.begin(), popular.end());
  Rng order(kPopularitySeed);
  shuffle(popular, order);
  std::vector<double> zipf(popular.size());
  double total = 0.0;
  for (std::size_t rank = 0; rank < zipf.size(); ++rank) {
    total += 1.0 / static_cast<double>(rank + 1);
    zipf[rank] = total;
  }

  std::vector<std::string> pair_items;
  for (const std::string& name : popular) {
    if (!has_comma(name)) pair_items.push_back(name);
  }
  std::sort(pair_items.begin(), pair_items.end());
  std::vector<const std::vector<std::string>*> frequent;
  for (const auto& set : itemsets) {
    if (!set.empty() && std::none_of(set.begin(), set.end(), has_comma)) {
      frequent.push_back(&set);
    }
  }

  Mix mix;
  mix.num_keywords = popular.size();
  std::unordered_map<std::string, std::size_t> answer_of;
  const auto add = [&](std::string line, std::string target, bool query) {
    const auto [it, fresh] = answer_of.emplace(target, mix.targets.size());
    if (fresh) mix.targets.push_back(target);
    mix.requests.push_back(
        {std::move(line), std::move(target), it->second, query});
  };

  Rng rng(seed);
  mix.requests.reserve(length);
  while (mix.requests.size() < length) {
    const double kind = rng.unit();
    if (kind < kQueryShare || pair_items.size() < 2) {
      const double z = rng.unit() * total;
      const auto rank = static_cast<std::size_t>(
          std::upper_bound(zipf.begin(), zipf.end(), z) - zipf.begin());
      const std::string& name = popular[std::min(rank, popular.size() - 1)];
      add("QUERY " + name, "/query?keyword=" + percent_encode(name), true);
      continue;
    }
    std::string names;
    if (kind < (1.0 + kQueryShare) / 2.0 && !frequent.empty()) {
      names = join(*frequent[rng.below(frequent.size())]);
    } else {
      const std::size_t a = rng.below(pair_items.size());
      std::size_t b = rng.below(pair_items.size() - 1);
      if (b >= a) ++b;
      names = join({pair_items[a], pair_items[b]});
    }
    add("SUPPORT " + names, "/support?items=" + percent_encode(names), false);
  }
  return mix;
}

}  // namespace perf_e2e
