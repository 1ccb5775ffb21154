#include "trace/pcap.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sim/packet.hpp"
#include "support/scratch_dir.hpp"
#include "util/crc32c.hpp"

namespace peerscope::trace {
namespace {

using net::Ipv4Addr;
using util::SimTime;

const Ipv4Addr kProbe{10, 0, 0, 1};
const Ipv4Addr kRemote{20, 1, 2, 3};

class PcapTest : public ::testing::Test {
 protected:
  static std::string slurp(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  const test::ScratchDir dir_{"peerscope_pcap_test"};
};

std::vector<PacketRecord> sample() {
  std::vector<PacketRecord> records;
  PacketRecord rx;
  rx.ts = SimTime::millis(1500);
  rx.remote = kRemote;
  rx.bytes = 1250;
  rx.dir = Direction::kRx;
  rx.kind = sim::PacketKind::kVideo;
  rx.ttl = 109;
  records.push_back(rx);

  PacketRecord tx;
  tx.ts = SimTime::millis(1501);
  tx.remote = kRemote;
  tx.bytes = 120;
  tx.dir = Direction::kTx;
  tx.kind = sim::PacketKind::kSignaling;
  tx.ttl = sim::kInitialTtl;
  records.push_back(tx);
  return records;
}

TEST_F(PcapTest, RoundTripPreservesFields) {
  const auto path = dir_ / "probe.pcap";
  write_pcap(path, kProbe, sample());
  const auto loaded = read_pcap(path, kProbe);
  ASSERT_EQ(loaded.size(), 2u);

  EXPECT_EQ(loaded[0].dir, Direction::kRx);
  EXPECT_EQ(loaded[0].remote, kRemote);
  EXPECT_EQ(loaded[0].bytes, 1250);
  EXPECT_EQ(loaded[0].ttl, 109);
  EXPECT_EQ(loaded[0].kind, sim::PacketKind::kVideo);
  // Timestamps round to microseconds in pcap.
  EXPECT_EQ(loaded[0].ts.ns(), SimTime::millis(1500).ns());

  EXPECT_EQ(loaded[1].dir, Direction::kTx);
  EXPECT_EQ(loaded[1].bytes, 120);
  EXPECT_EQ(loaded[1].kind, sim::PacketKind::kSignaling);
}

TEST_F(PcapTest, GlobalHeaderIsStandard) {
  const auto path = dir_ / "hdr.pcap";
  write_pcap(path, kProbe, sample());
  std::ifstream in(path, std::ios::binary);
  std::uint8_t header[24];
  in.read(reinterpret_cast<char*>(header), 24);
  ASSERT_TRUE(in.good());
  // Little-endian microsecond magic.
  EXPECT_EQ(header[0], 0xd4);
  EXPECT_EQ(header[1], 0xc3);
  EXPECT_EQ(header[2], 0xb2);
  EXPECT_EQ(header[3], 0xa1);
  // Version 2.4.
  EXPECT_EQ(header[4], 2);
  EXPECT_EQ(header[6], 4);
  // Link type 101 (raw IP).
  EXPECT_EQ(header[20], 101);
}

TEST_F(PcapTest, Ipv4ChecksumValidates) {
  const auto path = dir_ / "ck.pcap";
  write_pcap(path, kProbe, sample());
  const std::string buf = slurp(path);
  // First packet's IP header begins after 24B global + 16B record hdr.
  const auto* ip = reinterpret_cast<const std::uint8_t*>(buf.data() + 40);
  // Checksum over a valid header (checksum field included) is 0.
  EXPECT_EQ(ipv4_header_checksum(ip, 20), 0);
  EXPECT_EQ(ip[0], 0x45);
  EXPECT_EQ(ip[9], 17);  // UDP
}

TEST_F(PcapTest, EmptyCapture) {
  const auto path = dir_ / "empty.pcap";
  write_pcap(path, kProbe, {});
  EXPECT_TRUE(read_pcap(path, kProbe).empty());
  EXPECT_EQ(std::filesystem::file_size(path), 24u);
}

// Pinned encoded bytes (size + CRC-32C) of a fixed record set: RX and
// TX, IP lengths below the 28-byte header floor and at video size,
// several TTLs, stamps with sub-microsecond parts and past 1 s. Any
// change to a record header, IPv4 or UDP field fails here.
TEST_F(PcapTest, EncodedBytesMatchTheGoldens) {
  std::vector<PacketRecord> records;
  for (std::int64_t i = 0; i < 400; ++i) {
    PacketRecord r;
    r.ts = SimTime{i * 7'654'321 + i % 1'000};
    r.remote = Ipv4Addr{static_cast<std::uint32_t>(0x14010000 + i % 37)};
    r.bytes = i % 3 == 0 ? 20 : i % 3 == 1 ? 120 : 1250;
    r.dir = i % 2 == 0 ? Direction::kRx : Direction::kTx;
    r.kind = r.bytes >= 1000 ? sim::PacketKind::kVideo
                             : sim::PacketKind::kSignaling;
    r.ttl = static_cast<std::uint8_t>(100 + i % 29);
    records.push_back(r);
  }
  ASSERT_GT(records.back().ts, SimTime::seconds(1));
  const auto path = dir_ / "golden.pcap";
  write_pcap(path, kProbe, records);
  const std::string bytes = slurp(path);
  EXPECT_EQ(bytes.size(), 24 + 44 * records.size());
  EXPECT_EQ(util::crc32c(bytes), 0xa231c293u);

  write_pcap(path, kProbe, {});
  EXPECT_EQ(util::crc32c(slurp(path)), 0x71893d82u);
}

// Each record is a 16-byte header plus 28 stored bytes, so record i's
// header starts at 24 + 44 * i; its captured length sits 8 bytes in
// and its original length 12 bytes in.
constexpr std::streamoff kRecordBytes = 44;

/// Overwrites 4 bytes of `path` at `offset` with `value`.
void patch_u32(const std::filesystem::path& path, std::streamoff offset,
               char value) {
  // peerscope-lint: allow(no-raw-artifact-io): corrupts a test fixture
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(offset);
  for (int i = 0; i < 4; ++i) f.put(value);
}

TEST_F(PcapTest, ReaderRejectsGarbage) {
  const auto path = dir_ / "bad.pcap";
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::ofstream(path) << "definitely not a pcap file, not even trying";
  EXPECT_THROW((void)read_pcap(path, kProbe), std::runtime_error);

  // A zeroed original length would alias to a nonsense byte count.
  const auto orig = dir_ / "orig.pcap";
  write_pcap(orig, kProbe, sample());
  patch_u32(orig, 24 + 12, '\0');
  EXPECT_THROW((void)read_pcap(orig, kProbe), std::runtime_error);
}

TEST_F(PcapTest, ReaderRejectsTruncatedPacket) {
  const auto path = dir_ / "trunc.pcap";
  write_pcap(path, kProbe, sample());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 3);
  EXPECT_THROW((void)read_pcap(path, kProbe), std::runtime_error);

  // The file ends 7 bytes into the last record's header.
  const auto mid_header = dir_ / "midhdr.pcap";
  write_pcap(mid_header, kProbe, sample());
  std::filesystem::resize_file(mid_header, 24 + kRecordBytes + 7);
  EXPECT_THROW((void)read_pcap(mid_header, kProbe), std::runtime_error);

  // The last record's captured length points past the end of the file.
  const auto incl = dir_ / "incl.pcap";
  write_pcap(incl, kProbe, sample());
  patch_u32(incl, 24 + kRecordBytes + 8, '\xff');
  EXPECT_THROW((void)read_pcap(incl, kProbe), std::runtime_error);
}

TEST_F(PcapTest, ReaderRejectsForeignPackets) {
  const auto path = dir_ / "foreign.pcap";
  write_pcap(path, kProbe, sample());
  // Reading with the wrong probe address: packets involve neither
  // endpoint claimed.
  EXPECT_THROW((void)read_pcap(path, Ipv4Addr{9, 9, 9, 9}),
               std::runtime_error);
}

TEST(Checksum, Rfc1071KnownVector) {
  // Canonical example header from RFC 1071 discussions.
  const std::uint8_t header[] = {0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40,
                                 0x00, 0x40, 0x06, 0x00, 0x00, 0xac, 0x10,
                                 0x0a, 0x63, 0xac, 0x10, 0x0a, 0x0c};
  EXPECT_EQ(ipv4_header_checksum(header, 20), 0xb1e6);
}

}  // namespace
}  // namespace peerscope::trace
