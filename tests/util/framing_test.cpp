#include "util/framing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace peerscope::util::framing {
namespace {

constexpr FrameFormat kFmt{
    .magic = 0x54534554 /* "TEST" */, .version = 3, .max_record_len = 4096};

std::vector<std::string> numbered_payloads(std::size_t n) {
  std::vector<std::string> payloads;
  payloads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    payloads.push_back("record-" + std::to_string(i));
  }
  return payloads;
}

std::string encode_frames(const FrameFormat& format,
                          const std::vector<std::string>& payloads,
                          std::uint32_t sync_interval = kDefaultSyncInterval) {
  std::string buf;
  FrameEncoder encoder{format, buf, payloads.size(), sync_interval};
  for (const std::string& payload : payloads) {
    encoder.append(payload);
  }
  return buf;
}

FrameVisitor collect(std::vector<std::string>& out) {
  return {.payload = [&out](std::string_view payload) {
    out.emplace_back(payload);
    return true;
  }};
}

std::vector<std::string> decode_strict(const FrameFormat& format,
                                       std::string_view buf) {
  std::vector<std::string> payloads;
  decode_frames(format, buf, collect(payloads), "test");
  return payloads;
}

std::vector<std::string> decode_salvage(const FrameFormat& format,
                                        std::string_view buf,
                                        SalvageReport& report) {
  std::vector<std::string> payloads;
  decode_frames_salvage(format, buf, collect(payloads), report);
  return payloads;
}

TEST(Framing, RoundTripsEmptyAndMany) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{3}, std::size_t{1000}}) {
    const auto payloads = numbered_payloads(n);
    const std::string buf = encode_frames(kFmt, payloads);
    EXPECT_EQ(decode_strict(kFmt, buf), payloads) << n;
  }
}

TEST(Framing, RoundTripsBinaryPayloadsWithEmbeddedNulAndSyncMagic) {
  std::vector<std::string> payloads;
  payloads.push_back(std::string("\0\x01\x02", 3));
  payloads.push_back("SYNC");  // payload bytes must not fool the resync scan
  payloads.push_back({});      // zero-length record is legal
  const std::string buf = encode_frames(kFmt, payloads, 2);
  EXPECT_EQ(decode_strict(kFmt, buf), payloads);
}

TEST(Framing, EncodeRejectsOversizedPayload) {
  FrameFormat tight = kFmt;
  tight.max_record_len = 8;
  EXPECT_THROW((void)encode_frames(tight, {std::string(9, 'x')}),
               std::length_error);
  tight.min_record_len = 8;
  EXPECT_THROW((void)encode_frames(tight, {std::string(7, 'x')}),
               std::length_error);
}

TEST(Framing, HeaderExtensionSitsBeforeTheRecordCount) {
  FrameFormat format = kFmt;
  format.header_ext_len = 4;
  std::string buf;
  EXPECT_THROW((FrameEncoder{format, buf, 0, 0, "abc"}),
               std::invalid_argument);
  buf.clear();
  FrameEncoder encoder{format, buf, 1, 0, "WXYZ"};
  encoder.append("payload");
  EXPECT_EQ(buf.substr(8, 4), "WXYZ");  // after magic, version, reserved
  EXPECT_THROW(encoder.append("one too many"), std::logic_error);

  std::string ext;
  std::vector<std::string> payloads;
  SalvageReport report;
  decode_frames_salvage(
      format, buf,
      {.header = [&ext](const FrameHeader& header) { ext = header.ext; },
       .payload = collect(payloads).payload},
      report);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(ext, "WXYZ");
  EXPECT_EQ(payloads, std::vector<std::string>{"payload"});
}

TEST(Framing, StrictDecodeRejectsForeignMagicAndVersion) {
  const std::string buf = encode_frames(kFmt, numbered_payloads(2));
  FrameFormat wrong_magic = kFmt;
  wrong_magic.magic = 0x12345678;
  EXPECT_THROW((void)decode_strict(wrong_magic, buf), std::runtime_error);
  FrameFormat wrong_version = kFmt;
  wrong_version.version = 4;
  EXPECT_THROW((void)decode_strict(wrong_version, buf), std::runtime_error);
}

TEST(Framing, StrictDecodeRejectsFlippedPayloadByte) {
  std::string buf = encode_frames(kFmt, numbered_payloads(4));
  buf[buf.size() - 1] ^= 0x01;
  EXPECT_THROW((void)decode_strict(kFmt, buf), std::runtime_error);
}

TEST(Framing, StrictDecodeRejectsTruncationAndTrailingGarbage) {
  const std::string buf = encode_frames(kFmt, numbered_payloads(4));
  EXPECT_THROW((void)decode_strict(kFmt, std::string_view{buf}.substr(0, 30)),
               std::runtime_error);
  EXPECT_THROW((void)decode_strict(kFmt, buf + "tail"), std::runtime_error);
}

TEST(Framing, SalvageRecoversCleanFileExactly) {
  const auto payloads = numbered_payloads(100);
  const std::string buf = encode_frames(kFmt, payloads, 16);
  SalvageReport report;
  EXPECT_EQ(decode_salvage(kFmt, buf, report), payloads);
  EXPECT_TRUE(report.header_valid);
  EXPECT_EQ(report.records_recovered, 100u);
  EXPECT_EQ(report.records_skipped, 0u);
  EXPECT_EQ(report.bytes_discarded, 0u);
  EXPECT_FALSE(report.truncated);
  EXPECT_TRUE(report.note.empty());
}

TEST(Framing, SalvageResyncsAtMarkerAndAccountsEveryRecord) {
  const auto payloads = numbered_payloads(100);
  std::string buf = encode_frames(kFmt, payloads, 16);
  // Flip one byte inside the payload region after the header: the
  // damaged record poisons its 16-record group up to the next marker.
  buf[40] ^= 0xff;
  SalvageReport report;
  const auto recovered = decode_salvage(kFmt, buf, report);
  EXPECT_TRUE(report.header_valid);
  EXPECT_GT(report.records_skipped, 0u);
  EXPECT_LE(report.records_skipped, 16u);
  EXPECT_EQ(report.records_recovered + report.records_skipped, 100u);
  EXPECT_GT(report.bytes_discarded, 0u);
  EXPECT_FALSE(report.note.empty());
  // Everything after the first resync marker survives verbatim.
  EXPECT_EQ(recovered.back(), payloads.back());
  for (const std::string& payload : recovered) {
    EXPECT_NE(std::find(payloads.begin(), payloads.end(), payload),
              payloads.end());
  }
}

TEST(Framing, SalvageWithoutMarkersDropsTheRestOfTheStream) {
  const auto payloads = numbered_payloads(10);
  std::string buf = encode_frames(kFmt, payloads, /*sync_interval=*/0);
  buf[30] ^= 0xff;  // inside an early record
  SalvageReport report;
  const auto recovered = decode_salvage(kFmt, buf, report);
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.records_recovered + report.records_skipped, 10u);
  EXPECT_EQ(recovered.size(), report.records_recovered);
}

TEST(Framing, SalvageTruncatedTailReconcilesAgainstDeclaredCount) {
  const std::string buf = encode_frames(kFmt, numbered_payloads(50), 16);
  SalvageReport report;
  const auto recovered = decode_salvage(
      kFmt, std::string_view{buf}.substr(0, buf.size() - 5), report);
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(recovered.size() + report.records_skipped, 50u);
}

TEST(Framing, SalvageBadHeaderRecoversNothing) {
  std::string buf = encode_frames(kFmt, numbered_payloads(5));
  buf[0] ^= 0xff;  // magic
  SalvageReport report;
  EXPECT_TRUE(decode_salvage(kFmt, buf, report).empty());
  EXPECT_FALSE(report.header_valid);
  EXPECT_EQ(report.bytes_discarded, buf.size());
  EXPECT_FALSE(report.note.empty());
}

TEST(Framing, RejectedPayloadIsSkippedAloneAndFailsStrict) {
  const std::string buf = encode_frames(kFmt, numbered_payloads(6), 0);
  const FrameVisitor odd_only{.payload = [](std::string_view payload) {
    return (payload.back() - '0') % 2 == 1;
  }};
  SalvageReport report;
  decode_frames_salvage(kFmt, buf, odd_only, report);
  EXPECT_EQ(report.records_recovered, 3u);
  EXPECT_EQ(report.records_skipped, 3u);
  EXPECT_EQ(report.records_rejected, 3u);
  EXPECT_EQ(report.bytes_discarded, 0u);
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ(report.note, "corrupt record at index 0");
  EXPECT_THROW(decode_frames(kFmt, buf, odd_only, "test"),
               std::runtime_error);
}

}  // namespace
}  // namespace peerscope::util::framing
