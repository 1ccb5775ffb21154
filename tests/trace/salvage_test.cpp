// Trace-corruption tests: the strict readers must throw on every
// corruption class; the salvage readers must never throw, recover
// every record outside the damage, and account exactly for what was
// lost.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "support/scratch_dir.hpp"
#include "trace/binary_format.hpp"
#include "util/crc32c.hpp"

namespace peerscope::trace {
namespace {

using net::Ipv4Addr;
using util::SalvageReport;
using util::SimTime;

class SalvageTest : public ::testing::Test {
 protected:
  const test::ScratchDir dir_{"peerscope_salvage_test"};
};

std::vector<PacketRecord> sample_records(int n = 50) {
  std::vector<PacketRecord> records;
  for (int i = 0; i < n; ++i) {
    PacketRecord r;
    r.ts = SimTime::micros(i * 211);
    r.remote = Ipv4Addr{30, 1, 0, static_cast<std::uint8_t>(i % 200 + 1)};
    r.bytes = i % 2 ? 1250 : 96;
    r.dir = i % 2 ? Direction::kRx : Direction::kTx;
    r.kind = i % 2 ? sim::PacketKind::kVideo : sim::PacketKind::kSignaling;
    r.ttl = 110;
    records.push_back(r);
  }
  return records;
}

void patch_byte(const std::filesystem::path& path, std::streamoff offset,
                char value) {
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(offset);
  f.write(&value, 1);
}

// PSBT: 28-byte header, then 27-byte frames (len 4 · crc 4 · payload
// ts(8) remote(4) bytes(4) dir(1) kind(1) ttl(1)). 50 records stay
// under the default sync interval, so no marker sits between frames.
constexpr std::streamoff kHeaderSize = 28;
constexpr std::streamoff kFrameSize = 27;
constexpr std::streamoff kPayloadSize = 19;
constexpr std::streamoff kBytesSignOffset = 8 + 4 + 3;
constexpr std::streamoff kDirOffset = 8 + 4 + 4;

/// Sets byte `offset` of record `index`'s payload to `value` and
/// re-signs the frame, so the checksum passes and only the reader's
/// field validation can catch the damage.
void patch_payload(const std::filesystem::path& path, std::streamoff index,
                   std::streamoff offset, char value) {
  const std::streamoff frame = kHeaderSize + index * kFrameSize;
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  char payload[kPayloadSize];
  f.seekg(frame + 8);
  f.read(payload, kPayloadSize);
  payload[offset] = value;
  const std::uint32_t crc = util::crc32c({payload, kPayloadSize});
  char crc_bytes[sizeof crc];
  std::memcpy(crc_bytes, &crc, sizeof crc);
  f.seekp(frame + 4);
  f.write(crc_bytes, sizeof crc_bytes);
  f.write(payload, kPayloadSize);
}

TEST_F(SalvageTest, CleanFileMatchesStrictReader) {
  const auto path = dir_ / "clean.psct";
  const auto records = sample_records();
  write_trace_binary(path, Ipv4Addr{10, 0, 0, 1}, records);

  SalvageReport report;
  const TraceFile salvaged = read_trace_binary_salvage(path, &report);
  const TraceFile strict = read_trace_binary(path);

  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.records_recovered, records.size());
  EXPECT_EQ(salvaged.probe, strict.probe);
  ASSERT_EQ(salvaged.records.size(), strict.records.size());
  for (std::size_t i = 0; i < strict.records.size(); ++i) {
    EXPECT_EQ(salvaged.records[i].ts, strict.records[i].ts);
    EXPECT_EQ(salvaged.records[i].remote, strict.records[i].remote);
  }
}

TEST_F(SalvageTest, NullReportIsAccepted) {
  const auto path = dir_ / "noreport.psct";
  write_trace_binary(path, Ipv4Addr{10, 0, 0, 1}, sample_records());
  EXPECT_EQ(read_trace_binary_salvage(path).records.size(), 50u);
}

TEST_F(SalvageTest, MissingFileStillThrows) {
  EXPECT_THROW((void)read_trace_binary_salvage(dir_ / "absent.psct"),
               std::runtime_error);
}

TEST_F(SalvageTest, TruncatedHeaderRecoversNothing) {
  const auto path = dir_ / "hdr.psct";
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::ofstream(path, std::ios::binary) << "PSB";
  SalvageReport report;
  const TraceFile file = read_trace_binary_salvage(path, &report);
  EXPECT_TRUE(file.records.empty());
  EXPECT_FALSE(report.header_valid);
  EXPECT_EQ(report.bytes_discarded, 3u);
  EXPECT_FALSE(report.clean());
  // Strict reader agrees this is fatal.
  EXPECT_THROW((void)read_trace_binary(path), std::runtime_error);
}

TEST_F(SalvageTest, BadMagicRecoversNothing) {
  const auto path = dir_ / "magic.psct";
  write_trace_binary(path, Ipv4Addr{10, 0, 0, 1}, sample_records());
  patch_byte(path, 0, 'X');
  SalvageReport report;
  const TraceFile file = read_trace_binary_salvage(path, &report);
  EXPECT_TRUE(file.records.empty());
  EXPECT_FALSE(report.header_valid);
  EXPECT_EQ(report.bytes_discarded, std::filesystem::file_size(path));
  EXPECT_THROW((void)read_trace_binary(path), std::runtime_error);
}

TEST_F(SalvageTest, WrongVersionRecoversNothing) {
  const auto path = dir_ / "version.psct";
  write_trace_binary(path, Ipv4Addr{10, 0, 0, 1}, sample_records());
  patch_byte(path, 4, 9);  // version field
  SalvageReport report;
  const TraceFile file = read_trace_binary_salvage(path, &report);
  EXPECT_TRUE(file.records.empty());
  EXPECT_FALSE(report.header_valid);
  EXPECT_NE(report.note.find("version"), std::string::npos);
  EXPECT_THROW((void)read_trace_binary(path), std::runtime_error);
}

TEST_F(SalvageTest, MidRecordTruncationKeepsValidPrefix) {
  const auto path = dir_ / "trunc.psct";
  const auto records = sample_records();
  write_trace_binary(path, Ipv4Addr{10, 0, 0, 1}, records);
  // Chop off the last record and a half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - kFrameSize - 7);

  SalvageReport report;
  const TraceFile file = read_trace_binary_salvage(path, &report);
  ASSERT_EQ(file.records.size(), records.size() - 2);
  EXPECT_TRUE(report.header_valid);
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.bytes_discarded, kFrameSize - 7u);
  EXPECT_EQ(file.records.back().ts, records[records.size() - 3].ts);
  EXPECT_THROW((void)read_trace_binary(path), std::runtime_error);
}

TEST_F(SalvageTest, CorruptRecordIsSkippedWithResync) {
  const auto path = dir_ / "badrec.psct";
  const auto records = sample_records();
  write_trace_binary(path, Ipv4Addr{10, 0, 0, 1}, records);
  // Invalid direction byte in record 0 and record 3 under valid
  // checksums; the frame boundaries hold, so parsing resumes at the
  // very next record.
  patch_payload(path, 0, kDirOffset, 9);
  patch_payload(path, 3, kDirOffset, 9);

  SalvageReport report;
  const TraceFile file = read_trace_binary_salvage(path, &report);
  EXPECT_EQ(file.records.size(), records.size() - 2);
  EXPECT_EQ(report.records_skipped, 2u);
  EXPECT_EQ(report.records_recovered, records.size() - 2);
  EXPECT_FALSE(report.clean());
  // Neighbours of the corrupt records survived intact.
  EXPECT_EQ(file.records.front().ts, records[1].ts);
  EXPECT_THROW((void)read_trace_binary(path), std::runtime_error);
}

TEST_F(SalvageTest, NegativeByteCountIsSkipped) {
  const auto path = dir_ / "negbytes.psct";
  write_trace_binary(path, Ipv4Addr{10, 0, 0, 1}, sample_records());
  // Set the sign bit of record 0's bytes field.
  patch_payload(path, 0, kBytesSignOffset, static_cast<char>(0x80));
  SalvageReport report;
  const TraceFile file = read_trace_binary_salvage(path, &report);
  EXPECT_EQ(report.records_skipped, 1u);
  EXPECT_EQ(file.records.size(), 49u);
}

TEST_F(SalvageTest, TrailingGarbageIsCountedNotParsed) {
  const auto path = dir_ / "garbage.psct";
  write_trace_binary(path, Ipv4Addr{10, 0, 0, 1}, sample_records());
  {
    // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "spurious tail bytes";
  }
  SalvageReport report;
  const TraceFile file = read_trace_binary_salvage(path, &report);
  EXPECT_EQ(file.records.size(), 50u);
  EXPECT_EQ(report.bytes_discarded, 19u);
  EXPECT_FALSE(report.truncated);
  EXPECT_NE(report.note.find("trailing"), std::string::npos);
  EXPECT_THROW((void)read_trace_binary(path), std::runtime_error);
}

}  // namespace
}  // namespace peerscope::trace
