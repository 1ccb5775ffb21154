#include "util/json.hpp"

#include <algorithm>
#include <cstdio>

namespace peerscope::util::json {

namespace {

constexpr auto npos = std::string_view::npos;

// The short escapes, one table for both directions: the byte kRaw[k]
// is written as a backslash followed by kShort[k].
constexpr std::string_view kRaw = "\"\\\n\r\t";
constexpr std::string_view kShort = "\"\\nrt";

// What may follow a complete number.
constexpr std::string_view kNumberEnd = ",}] \n\r\t";

void append_printf(std::string& out, const char* format, int precision,
                   double value) {
  // Wide enough for `%.17f` of DBL_MAX (309 integer digits).
  char buf[400];
  const int n = std::snprintf(buf, sizeof buf, format, precision, value);
  if (n > 0) {
    out.append(buf, std::min(static_cast<std::size_t>(n), sizeof buf - 1));
  }
}

/// Offset of the value after `"key":` and an optional space, or npos.
std::size_t value_offset(std::string_view text, std::string_view key) {
  std::string needle{"\""};
  needle.append(key).append("\":");
  std::size_t at = text.find(needle);
  if (at == npos) return at;
  at += needle.size();
  if (at < text.size() && text[at] == ' ') ++at;
  return at;
}

}  // namespace

void append_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (const std::size_t k = kRaw.find(c); k != npos) {
      out += '\\';
      out += kShort[k];
    } else if (byte < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(byte));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_number(std::string& out, double value, int precision) {
  append_printf(out, "%.*g", precision, value);
}

std::optional<std::string> string_field(std::string_view text,
                                        std::string_view key) {
  std::size_t i = value_offset(text, key);
  if (i >= text.size() || text[i] != '"') return std::nullopt;
  std::string out;
  while (++i < text.size()) {
    const char c = text[i];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i == text.size()) break;
    if (const std::size_t k = kShort.find(text[i]); k != npos) {
      out += kRaw[k];
      continue;
    }
    // The writer's only other escape: `\u00xx`, one byte.
    const char* first = text.data() + i + 1;
    unsigned code = 0;
    if (text[i] != 'u' || text.size() - i <= 4 ||
        std::from_chars(first, first + 4, code, 16).ptr != first + 4 ||
        code > 0xff) {
      return std::nullopt;
    }
    out += static_cast<char>(code);
    i += 4;
  }
  return std::nullopt;  // closing quote lost to a torn tail
}

std::optional<double> number_field(std::string_view text,
                                   std::string_view key) {
  const std::size_t at = value_offset(text, key);
  if (at >= text.size()) return std::nullopt;
  const char* first = text.data() + at;
  const char* last = text.data() + text.size();
  // from_chars would also take "inf" and "nan"; a JSON number starts
  // with a digit or a minus sign followed by one.
  const char* digit = *first == '-' ? first + 1 : first;
  if (digit == last || *digit < '0' || *digit > '9') return std::nullopt;
  double value = 0;
  const auto [end, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || end == last || kNumberEnd.find(*end) == npos) {
    return std::nullopt;
  }
  return value;
}

}  // namespace peerscope::util::json
