// The JSON text helpers every writer in the program shares: rules JSON,
// metrics JSON, log records, the slow-query span list, `--trace` files
// and crash dumps.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace gpumine {

/// Appends `text` as JSON string contents (RFC 8259): quote and
/// backslash are escaped, \b \f \n \r \t get their short escapes, other
/// control bytes become lowercase \u00xx, and every other byte (UTF-8
/// included) passes through. `Out` needs only push_back(char); the
/// escaper itself never allocates, so the crash-dump writer can call it
/// from a signal handler.
template <typename Out>
void append_json_escaped(Out& out, std::string_view text) {
  constexpr std::string_view kShort = "\b\f\n\r\t";
  constexpr std::string_view kShortLetter = "bfnrt";
  constexpr char kHex[] = "0123456789abcdef";
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (byte >= 0x20) {
      out.push_back(c);
    } else if (const std::size_t k = kShort.find(c); k != kShort.npos) {
      out.push_back('\\');
      out.push_back(kShortLetter[k]);
    } else {
      for (const char e : std::string_view("\\u00")) out.push_back(e);
      out.push_back(kHex[byte >> 4]);
      out.push_back(kHex[byte & 0xf]);
    }
  }
}

/// Appends `value` as printf's "%.6g" renders it ("inf", "-inf" and
/// "nan" for non-finite values).
inline void append_real(std::string& out, double value) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.6g", value);
  out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace gpumine
