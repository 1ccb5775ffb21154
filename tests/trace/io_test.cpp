// Trace files through the public readers and writers: PSBT round trips,
// strict rejection of damaged files, and the CSV exporter.
#include "trace/io.hpp"

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
using util::SimTime;

class TraceIoTest : public ::testing::Test {
 protected:
  const test::ScratchDir dir_{"peerscope_io_test"};
};

std::vector<PacketRecord> sample_records() {
  std::vector<PacketRecord> records;
  for (int i = 0; i < 100; ++i) {
    PacketRecord r;
    r.ts = SimTime::micros(i * 137);
    r.remote = Ipv4Addr{20, 0, static_cast<std::uint8_t>(i % 3),
                        static_cast<std::uint8_t>(i + 1)};
    r.bytes = i % 2 ? 1250 : 120;
    r.dir = i % 2 ? Direction::kRx : Direction::kTx;
    r.kind = i % 2 ? sim::PacketKind::kVideo : sim::PacketKind::kSignaling;
    r.ttl = static_cast<std::uint8_t>(100 + i % 28);
    records.push_back(r);
  }
  return records;
}

TEST_F(TraceIoTest, BinaryRoundTrip) {
  const Ipv4Addr probe{10, 0, 0, 1};
  const auto records = sample_records();
  const auto path = dir_ / "probe.psct";
  write_trace_binary(path, probe, records);

  const TraceFile loaded = read_trace_binary(path);
  EXPECT_EQ(loaded.probe, probe);
  ASSERT_EQ(loaded.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded.records[i].ts, records[i].ts);
    EXPECT_EQ(loaded.records[i].remote, records[i].remote);
    EXPECT_EQ(loaded.records[i].bytes, records[i].bytes);
    EXPECT_EQ(loaded.records[i].dir, records[i].dir);
    EXPECT_EQ(loaded.records[i].kind, records[i].kind);
    EXPECT_EQ(loaded.records[i].ttl, records[i].ttl);
  }
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips) {
  const auto path = dir_ / "empty.psct";
  write_trace_binary(path, Ipv4Addr{1, 2, 3, 4}, {});
  const TraceFile loaded = read_trace_binary(path);
  EXPECT_EQ(loaded.probe, (Ipv4Addr{1, 2, 3, 4}));
  EXPECT_TRUE(loaded.records.empty());
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW((void)read_trace_binary(dir_ / "nonexistent.psct"),
               std::runtime_error);
}

TEST_F(TraceIoTest, BadMagicThrows) {
  const auto path = dir_ / "bad.psct";
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::ofstream(path) << "this is not a trace file at all, not even close";
  EXPECT_THROW((void)read_trace_binary(path), std::runtime_error);
}

TEST_F(TraceIoTest, TruncatedHeaderThrows) {
  const auto path = dir_ / "short.psct";
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::ofstream(path) << "abc";
  EXPECT_THROW((void)read_trace_binary(path), std::runtime_error);
}

TEST_F(TraceIoTest, TruncatedBodyThrows) {
  const auto path = dir_ / "truncated.psct";
  write_trace_binary(path, Ipv4Addr{1, 2, 3, 4}, sample_records());
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);
  EXPECT_THROW((void)read_trace_binary(path), std::runtime_error);
}

TEST_F(TraceIoTest, CorruptEnumThrows) {
  const auto path = dir_ / "corrupt.psct";
  write_trace_binary(path, Ipv4Addr{1, 2, 3, 4}, sample_records());
  std::ifstream in(path, std::ios::binary);
  std::string buf{std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>()};
  // Set the first record's direction byte to an invalid value and
  // re-sign its frame (the payload follows the 28-byte header and the
  // frame's length + CRC; dir follows ts 8 + remote 4 + bytes 4): the
  // checksum passes, the field check must still refuse it.
  constexpr std::size_t kPayload = 28 + 8;
  buf[kPayload + 16] = 9;
  const std::uint32_t crc =
      util::crc32c(std::string_view{buf}.substr(kPayload, 19));
  std::memcpy(&buf[kPayload - 4], &crc, sizeof crc);
  EXPECT_THROW((void)parse_trace_binary(buf, path.string()),
               std::runtime_error);
}

TEST_F(TraceIoTest, CsvExport) {
  const auto path = dir_ / "trace.csv";
  std::vector<PacketRecord> records;
  PacketRecord r;
  r.ts = SimTime::millis(5);
  r.remote = Ipv4Addr{20, 0, 0, 7};
  r.bytes = 1250;
  r.dir = Direction::kRx;
  r.kind = sim::PacketKind::kVideo;
  r.ttl = 110;
  records.push_back(r);
  write_trace_csv(path, Ipv4Addr{10, 0, 0, 1}, records);

  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "# probe=10.0.0.1");
  std::getline(in, line);
  EXPECT_EQ(line, "ts_ns,remote,dir,kind,bytes,ttl");
  std::getline(in, line);
  EXPECT_EQ(line, "5000000,20.0.0.7,rx,video,1250,110");
}

}  // namespace
}  // namespace peerscope::trace
