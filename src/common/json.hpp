// The JSON text helpers every writer in the program shares: rules JSON,
// metrics JSON, log records, the slow-query span list, `--trace` files
// and crash dumps.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace gpumine {

/// Length of the well-formed UTF-8 sequence (RFC 3629: no overlong
/// form, no surrogate, nothing above U+10FFFF) that starts `text`, or 0
/// when none does. `text` is non-empty and starts with a byte >= 0x80.
constexpr std::size_t utf8_sequence_length(std::string_view text) {
  const auto at = [&](std::size_t i) {
    return static_cast<unsigned char>(text[i]);
  };
  const unsigned char lead = at(0);
  std::size_t length = 0;
  // Range of the second byte; the later ones are always 0x80-0xbf.
  unsigned char low = 0x80;
  unsigned char high = 0xbf;
  if (lead >= 0xc2 && lead <= 0xdf) {
    length = 2;
  } else if (lead >= 0xe0 && lead <= 0xef) {
    length = 3;
    if (lead == 0xe0) low = 0xa0;   // overlong below U+0800
    if (lead == 0xed) high = 0x9f;  // surrogates U+D800-U+DFFF
  } else if (lead >= 0xf0 && lead <= 0xf4) {
    length = 4;
    if (lead == 0xf0) low = 0x90;   // overlong below U+10000
    if (lead == 0xf4) high = 0x8f;  // above U+10FFFF
  } else {
    return 0;  // continuation byte, C0/C1 overlong lead, or F5-FF
  }
  if (text.size() < length || at(1) < low || at(1) > high) return 0;
  for (std::size_t i = 2; i < length; ++i) {
    if (at(i) < 0x80 || at(i) > 0xbf) return 0;
  }
  return length;
}

/// Appends `text` as JSON string contents (RFC 8259): quote and
/// backslash are escaped, \b \f \n \r \t get their short escapes, other
/// control bytes become lowercase \u00xx, well-formed UTF-8 passes
/// through, and each byte that is not part of a well-formed UTF-8
/// sequence becomes \ufffd, so the output is valid UTF-8 whatever the
/// input. `Out` needs only push_back(char); the escaper itself never
/// allocates, so the crash-dump writer can call it from a signal
/// handler.
template <typename Out>
void append_json_escaped(Out& out, std::string_view text) {
  constexpr std::string_view kShort = "\b\f\n\r\t";
  constexpr std::string_view kShortLetter = "bfnrt";
  constexpr char kHex[] = "0123456789abcdef";
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x80) {
      const std::size_t length = utf8_sequence_length(text.substr(i));
      if (length == 0) {
        for (const char e : std::string_view("\\ufffd")) out.push_back(e);
      } else {
        for (const char e : text.substr(i, length)) out.push_back(e);
        i += length - 1;
      }
    } else if (c == '"' || c == '\\') {
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
