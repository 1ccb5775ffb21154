// CRC-32C known answers (RFC 3720 §B.4) and the table-driven kernel
// against a bit-at-a-time reference: every length across the 8-byte
// step and its tail, at every alignment, and the streaming form at
// every split point.
#include "util/crc32c.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

namespace peerscope::util {
namespace {

/// One polynomial step per bit: no tables, no slicing.
std::uint32_t reference_crc32c(std::string_view data) {
  std::uint32_t crc = ~0u;
  for (const char c : data) {
    crc ^= static_cast<std::uint8_t>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
  }
  return ~crc;
}

/// `n` bytes that are neither constant nor periodic in 8.
std::string pattern(std::size_t n) {
  std::string bytes(n, '\0');
  std::uint32_t x = 0x9e3779b9u;
  for (char& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<char>(x >> 24);
  }
  return bytes;
}

TEST(Crc32c, KnownAnswers) {
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (std::size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  EXPECT_EQ(crc32c(std::string(32, '\x00')), 0x8a9136aau);
  EXPECT_EQ(crc32c(std::string(32, '\xff')), 0x62a8ab43u);
  EXPECT_EQ(crc32c(ascending), 0x46dd794eu);
  EXPECT_EQ(crc32c(descending), 0x113fdb5cu);
  EXPECT_EQ(crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(crc32c(""), 0u);
}

TEST(Crc32c, EqualsTheReferenceAtEveryLengthAndAlignment) {
  const std::string buf = pattern(300 + 8);
  for (std::size_t offset = 0; offset <= 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::string_view piece{buf.data() + offset, len};
      ASSERT_EQ(crc32c(piece), reference_crc32c(piece))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32c, ExtendAtEverySplitEqualsTheWhole) {
  const std::string buf = pattern(300);
  const std::uint32_t whole = crc32c(buf);
  const std::string_view view{buf};
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    EXPECT_EQ(crc32c_extend(crc32c(view.substr(0, split)), view.substr(split)),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace peerscope::util
