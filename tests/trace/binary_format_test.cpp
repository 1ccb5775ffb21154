// PSBT framing: roundtrip fidelity, strict-reader rejection of every
// corruption class, and the salvage reader's accounting invariant —
// recovered + skipped always equals the header's declared count when
// the header itself is intact.
#include "trace/binary_format.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/scratch_dir.hpp"
#include "util/crc32c.hpp"

namespace peerscope::trace {
namespace {

using util::SalvageReport;

constexpr std::size_t kHeaderSize = 28;
constexpr std::size_t kMarkerSize = 16;
constexpr std::size_t kFrameSize = 8 + 19;  // len + crc + payload

class BinaryFormatTest : public ::testing::Test {
 protected:
  static std::vector<PacketRecord> make_records(std::size_t n) {
    std::vector<PacketRecord> records;
    records.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      PacketRecord r;
      r.ts = util::SimTime{static_cast<std::int64_t>(1000 + i * 37)};
      r.remote = net::Ipv4Addr{static_cast<std::uint32_t>(0x0a000001 + i)};
      r.bytes = static_cast<std::int32_t>(40 + i % 1400);
      r.dir = i % 2 == 0 ? Direction::kRx : Direction::kTx;
      r.kind = i % 3 == 0 ? sim::PacketKind::kSignaling
                          : sim::PacketKind::kVideo;
      r.ttl = static_cast<std::uint8_t>(i % 64);
      records.push_back(r);
    }
    return records;
  }

  std::string slurp(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  void dump(const std::filesystem::path& path, const std::string& buf) {
    // peerscope-lint: allow(no-raw-artifact-io): tests plant corrupt bytes
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }

  /// Byte offset of record `i`'s frame for files written with
  /// `interval` (markers precede record i when i % interval == 0,
  /// i > 0).
  static std::size_t frame_offset(std::size_t i, std::uint32_t interval) {
    const std::size_t markers = interval > 0 ? i / interval : 0;
    return kHeaderSize + i * kFrameSize + markers * kMarkerSize;
  }

  static void expect_equal(const std::vector<PacketRecord>& a,
                           const std::vector<PacketRecord>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].ts.ns(), b[i].ts.ns()) << "record " << i;
      EXPECT_EQ(a[i].remote, b[i].remote) << "record " << i;
      EXPECT_EQ(a[i].bytes, b[i].bytes) << "record " << i;
      EXPECT_EQ(a[i].dir, b[i].dir) << "record " << i;
      EXPECT_EQ(a[i].kind, b[i].kind) << "record " << i;
      EXPECT_EQ(a[i].ttl, b[i].ttl) << "record " << i;
    }
  }

  const test::ScratchDir dir_{"peerscope_psbt"};
};

// --- clean roundtrip --------------------------------------------------

TEST_F(BinaryFormatTest, RoundtripPreservesEveryField) {
  const auto path = dir_ / "trace.psct";
  const auto records = make_records(1000);
  write_trace_binary(path, net::Ipv4Addr{0x0afe0001}, records, 64);
  const TraceFile got = read_trace_binary(path);
  EXPECT_EQ(got.probe, net::Ipv4Addr{0x0afe0001});
  expect_equal(records, got.records);
}

TEST_F(BinaryFormatTest, WritingTwiceIsByteIdentical) {
  const auto records = make_records(300);
  write_trace_binary(dir_ / "a.psct", net::Ipv4Addr{1}, records);
  write_trace_binary(dir_ / "b.psct", net::Ipv4Addr{1}, records);
  EXPECT_EQ(slurp(dir_ / "a.psct"), slurp(dir_ / "b.psct"));
}

TEST_F(BinaryFormatTest, EmptyTraceRoundtrips) {
  const auto path = dir_ / "empty.psct";
  write_trace_binary(path, net::Ipv4Addr{42}, {});
  const TraceFile got = read_trace_binary(path);
  EXPECT_EQ(got.probe, net::Ipv4Addr{42});
  EXPECT_TRUE(got.records.empty());
  EXPECT_EQ(slurp(path).size(), kHeaderSize);
}

TEST_F(BinaryFormatTest, LayoutMatchesTheDocumentedSizes) {
  // 10 records, interval 4: markers before records 4 and 8.
  const auto path = dir_ / "layout.psct";
  write_trace_binary(path, net::Ipv4Addr{1}, make_records(10), 4);
  EXPECT_EQ(slurp(path).size(),
            kHeaderSize + 10 * kFrameSize + 2 * kMarkerSize);
}

TEST_F(BinaryFormatTest, ZeroIntervalWritesNoMarkers) {
  const auto path = dir_ / "nomark.psct";
  write_trace_binary(path, net::Ipv4Addr{1}, make_records(10), 0);
  EXPECT_EQ(slurp(path).size(), kHeaderSize + 10 * kFrameSize);
  expect_equal(make_records(10), read_trace_binary(path).records);
}

// Pinned encoded bytes (size + CRC-32C) of fixed inputs: any change to
// the PSBT on-disk format fails here.
TEST_F(BinaryFormatTest, EncodedBytesMatchTheGoldens) {
  struct Golden {
    std::uint32_t interval;
    std::size_t size;
    std::uint32_t crc;
  };
  for (const Golden& golden : {Golden{0, 16228, 0x5d9547cd},
                               Golden{4, 18612, 0x52bfaf6f},
                               Golden{256, 16260, 0x1624cf5d}}) {
    const auto path = dir_ / "golden.psct";
    write_trace_binary(path, net::Ipv4Addr{0x0afe0001}, make_records(600),
                       golden.interval);
    const std::string bytes = slurp(path);
    EXPECT_EQ(bytes.size(), golden.size) << golden.interval;
    EXPECT_EQ(util::crc32c(bytes), golden.crc) << golden.interval;
  }
  const auto empty = dir_ / "golden_empty.psct";
  write_trace_binary(empty, net::Ipv4Addr{0x0afe0001}, {});
  EXPECT_EQ(slurp(empty).size(), kHeaderSize);
  EXPECT_EQ(util::crc32c(slurp(empty)), 0x48674bc7u);
}

// --- strict reader ----------------------------------------------------

TEST_F(BinaryFormatTest, StrictRejectsBadMagicVersionAndHeaderCrc) {
  const auto path = dir_ / "hdr.psct";
  write_trace_binary(path, net::Ipv4Addr{1}, make_records(4));
  const std::string clean = slurp(path);

  std::string bad = clean;
  bad[0] = 'X';
  EXPECT_THROW((void)parse_trace_binary(bad, "t"), std::runtime_error);

  bad = clean;
  bad[4] = 9;  // version
  EXPECT_THROW((void)parse_trace_binary(bad, "t"), std::runtime_error);

  bad = clean;
  bad[10] ^= 0x01;  // probe byte: header CRC no longer matches
  EXPECT_THROW((void)parse_trace_binary(bad, "t"), std::runtime_error);
}

TEST_F(BinaryFormatTest, StrictRejectsPayloadCorruptionAndTruncation) {
  const auto path = dir_ / "body.psct";
  write_trace_binary(path, net::Ipv4Addr{1}, make_records(8), 4);
  const std::string clean = slurp(path);

  std::string bad = clean;
  bad[frame_offset(5, 4) + 8] ^= 0x40;  // payload byte of record 5
  EXPECT_THROW((void)parse_trace_binary(bad, "t"), std::runtime_error);

  EXPECT_THROW(
      (void)parse_trace_binary(clean.substr(0, clean.size() - 3), "t"),
      std::runtime_error);

  EXPECT_THROW((void)parse_trace_binary(clean + "junk", "t"),
               std::runtime_error);
}

TEST_F(BinaryFormatTest, StrictAcceptsWhatItWrote) {
  const auto path = dir_ / "ok.psct";
  write_trace_binary(path, net::Ipv4Addr{1}, make_records(8), 4);
  EXPECT_NO_THROW((void)read_trace_binary(path));
}

// --- salvage reader ---------------------------------------------------

TEST_F(BinaryFormatTest, SalvageOnCleanFileIsClean) {
  const auto path = dir_ / "clean.psct";
  const auto records = make_records(600);
  write_trace_binary(path, net::Ipv4Addr{7}, records);
  SalvageReport rep;
  const TraceFile got = read_trace_binary_salvage(path, &rep);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.records_recovered, 600u);
  EXPECT_EQ(rep.records_skipped, 0u);
  expect_equal(records, got.records);
}

TEST_F(BinaryFormatTest, SalvageResynchronisesAtTheNextMarker) {
  // Interval 16, corrupt record 20's payload: records 20..31 are lost
  // to the marker at 32, everything else survives.
  const auto path = dir_ / "resync.psct";
  const auto records = make_records(100);
  write_trace_binary(path, net::Ipv4Addr{7}, records, 16);
  std::string buf = slurp(path);
  buf[frame_offset(20, 16) + 8] ^= 0x01;

  SalvageReport rep;
  const TraceFile got = parse_trace_binary_salvage(buf, &rep);
  EXPECT_TRUE(rep.header_valid);
  EXPECT_FALSE(rep.truncated);
  EXPECT_EQ(rep.records_recovered, 88u);
  EXPECT_EQ(rep.records_skipped, 12u);
  EXPECT_EQ(rep.records_recovered + rep.records_skipped, records.size());
  EXPECT_GT(rep.bytes_discarded, 0u);
  // The recovered stream is records 0..19 then 32..99, in order.
  ASSERT_EQ(got.records.size(), 88u);
  EXPECT_EQ(got.records[19].ts.ns(), records[19].ts.ns());
  EXPECT_EQ(got.records[20].ts.ns(), records[32].ts.ns());
  EXPECT_EQ(got.records.back().ts.ns(), records.back().ts.ns());
}

TEST_F(BinaryFormatTest, SalvageSurvivesACorruptSyncMarker) {
  // Damaging the marker itself (before record 16) poisons 16..31; the
  // marker at 32 resyncs.
  const auto path = dir_ / "marker.psct";
  const auto records = make_records(48);
  write_trace_binary(path, net::Ipv4Addr{7}, records, 16);
  std::string buf = slurp(path);
  buf[frame_offset(16, 16) - kMarkerSize] ^= 0xff;  // marker magic

  SalvageReport rep;
  const TraceFile got = parse_trace_binary_salvage(buf, &rep);
  EXPECT_EQ(rep.records_recovered, 32u);
  EXPECT_EQ(rep.records_skipped, 16u);
  EXPECT_EQ(got.records[16].ts.ns(), records[32].ts.ns());
}

TEST_F(BinaryFormatTest, CorruptLengthFieldAlsoResynchronises) {
  // A flipped frame-length bit must not send the reader off to parse
  // noise — the implausible length poisons the region instead.
  const auto path = dir_ / "len.psct";
  const auto records = make_records(64);
  write_trace_binary(path, net::Ipv4Addr{7}, records, 16);
  std::string buf = slurp(path);
  buf[frame_offset(3, 16) + 1] ^= 0x20;  // length now huge

  SalvageReport rep;
  (void)parse_trace_binary_salvage(buf, &rep);
  EXPECT_EQ(rep.records_recovered + rep.records_skipped, 64u);
  EXPECT_EQ(rep.records_recovered, 3u + 48u);  // 0..2 and 16..63
}

TEST_F(BinaryFormatTest, CrcValidOutOfDomainRecordIsSkippedAlone) {
  // Rewrite record 5's dir field to 9 and patch the frame CRC so the
  // checksum passes: the boundary holds, only that record drops.
  const auto path = dir_ / "domain.psct";
  const auto records = make_records(12);
  write_trace_binary(path, net::Ipv4Addr{7}, records, 0);
  std::string buf = slurp(path);
  const std::size_t frame = frame_offset(5, 0);
  buf[frame + 8 + 16] = 9;  // dir byte within the payload
  const std::uint32_t crc = util::crc32c(
      std::string_view{buf}.substr(frame + 8, 19));
  std::memcpy(&buf[frame + 4], &crc, sizeof crc);

  SalvageReport rep;
  const TraceFile got = parse_trace_binary_salvage(buf, &rep);
  EXPECT_EQ(rep.records_recovered, 11u);
  EXPECT_EQ(rep.records_skipped, 1u);
  EXPECT_EQ(rep.bytes_discarded, 0u);
  EXPECT_FALSE(rep.truncated);
  EXPECT_EQ(got.records[5].ts.ns(), records[6].ts.ns());
}

TEST_F(BinaryFormatTest, CorruptionWithoutMarkersLosesTheTail) {
  const auto path = dir_ / "tail.psct";
  const auto records = make_records(32);
  write_trace_binary(path, net::Ipv4Addr{7}, records, 0);
  std::string buf = slurp(path);
  buf[frame_offset(10, 0) + 8] ^= 0x01;

  SalvageReport rep;
  (void)parse_trace_binary_salvage(buf, &rep);
  EXPECT_EQ(rep.records_recovered, 10u);
  EXPECT_EQ(rep.records_skipped, 22u);
  EXPECT_TRUE(rep.truncated);
}

TEST_F(BinaryFormatTest, TruncationMidRecordIsAccounted) {
  const auto path = dir_ / "trunc.psct";
  const auto records = make_records(40);
  write_trace_binary(path, net::Ipv4Addr{7}, records, 16);
  const std::string clean = slurp(path);
  // Cut inside record 25's payload.
  const std::string cut = clean.substr(0, frame_offset(25, 16) + 12);

  SalvageReport rep;
  const TraceFile got = parse_trace_binary_salvage(cut, &rep);
  EXPECT_TRUE(rep.truncated);
  EXPECT_EQ(rep.records_recovered, 25u);
  EXPECT_EQ(rep.records_skipped, 15u);
  EXPECT_EQ(rep.bytes_discarded, 12u);  // the dangling partial frame
  EXPECT_EQ(got.records.size(), 25u);

  // A CRC-valid header declaring 2^40 records over an empty body: the
  // count is accounted for, never allocated for.
  std::string huge = clean.substr(0, kHeaderSize);
  const std::uint64_t declared = std::uint64_t{1} << 40;
  std::memcpy(&huge[12], &declared, sizeof declared);
  const std::uint32_t crc =
      util::crc32c(std::string_view{huge}.substr(0, kHeaderSize - 4));
  std::memcpy(&huge[kHeaderSize - 4], &crc, sizeof crc);
  EXPECT_THROW((void)parse_trace_binary(huge, "t"), std::runtime_error);
  EXPECT_TRUE(parse_trace_binary_salvage(huge, &rep).records.empty());
  EXPECT_TRUE(rep.header_valid);
  EXPECT_TRUE(rep.truncated);
  EXPECT_EQ(rep.records_recovered, 0u);
  EXPECT_EQ(rep.records_skipped, declared);
}

TEST_F(BinaryFormatTest, UnusableHeaderSalvagesNothing) {
  std::string buf = "PSBT but not really a valid header at all";
  SalvageReport rep;
  const TraceFile got = parse_trace_binary_salvage(buf, &rep);
  EXPECT_FALSE(rep.header_valid);
  EXPECT_EQ(rep.records_recovered, 0u);
  EXPECT_EQ(rep.bytes_discarded, buf.size());
  EXPECT_TRUE(got.records.empty());
}

TEST_F(BinaryFormatTest, TrailingGarbageIsDiscardedNotParsed) {
  const auto path = dir_ / "garbage.psct";
  const auto records = make_records(6);
  write_trace_binary(path, net::Ipv4Addr{7}, records, 0);
  std::string buf = slurp(path) + "spurious bytes";

  SalvageReport rep;
  const TraceFile got = parse_trace_binary_salvage(buf, &rep);
  EXPECT_EQ(rep.records_recovered, 6u);
  EXPECT_EQ(rep.records_skipped, 0u);
  EXPECT_EQ(rep.bytes_discarded, std::strlen("spurious bytes"));
  EXPECT_EQ(got.records.size(), 6u);
}

}  // namespace
}  // namespace peerscope::trace
