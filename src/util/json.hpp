// The one JSON dialect every PeerScope artifact speaks (DESIGN.md §9).
//
// metrics.json, trace.json and the experiment journal are all written
// with the escaper and number formatters below, and the journal and
// trace readers read through the flat field reader. Each format keeps
// its own layout and whitespace; only the string and number spellings
// live here.
//
// The reader is not a general JSON parser. It finds `"key":` (with an
// optional space after the colon) anywhere in the text and decodes the
// value that follows, which is exact for documents this writer made:
// the escaper never lets a raw `"` into a string, so a key needle
// cannot match inside a value. Every lookup returns nullopt when the
// key is absent or its value is torn, so a truncated document yields
// nullopt or the exact value, never a wrong one.
#pragma once

#include <charconv>
#include <concepts>
#include <optional>
#include <string>
#include <string_view>

namespace peerscope::util::json {

/// Appends `text` as a quoted JSON string. `"` `\` `\n` `\r` `\t` get
/// their short escapes, the other bytes below 0x20 become `\u00xx`,
/// and every other byte (UTF-8 or not) is copied through.
void append_string(std::string& out, std::string_view text);

/// Appends an integer in base 10.
template <std::integral T>
void append_number(std::string& out, T value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

/// Appends `value` as printf's `%.<precision>g` in the C locale: the
/// default 17 digits round-trip every double, 6 is what an iostream
/// prints by default.
void append_number(std::string& out, double value, int precision = 17);

/// The string value of `"key":"..."`, unescaped. nullopt when the key
/// is absent, the value is not a string, or the value is torn (no
/// closing quote, a cut or unknown escape).
[[nodiscard]] std::optional<std::string> string_field(std::string_view text,
                                                      std::string_view key);

/// The numeric value of `"key":<number>`. The number must be followed
/// by a delimiter (`,` `}` `]` or whitespace): a number cut at the end
/// of the text reads as nullopt, not as its truncated digits.
[[nodiscard]] std::optional<double> number_field(std::string_view text,
                                                 std::string_view key);

}  // namespace peerscope::util::json
