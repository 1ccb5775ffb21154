// Corruption robustness: random bit flips, truncations and garbage
// files must never crash the readers. A CRC covers every PSBT byte, so
// the strict reader throws a clean std::runtime_error on each of them,
// and the salvage reader never throws and — whenever the header
// survived — accounts every declared record as recovered or skipped.
// pcap carries no checksums: a flip inside a field may parse as data.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "support/scratch_dir.hpp"
#include "trace/binary_format.hpp"
#include "trace/pcap.hpp"
#include "util/rng.hpp"

namespace peerscope::trace {
namespace {

using net::Ipv4Addr;

class FuzzTest : public ::testing::Test {
 protected:
  std::string read_all(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  void write_all(const std::filesystem::path& path, const std::string& data) {
    // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  const test::ScratchDir dir_{"peerscope_fuzz_test"};
};

std::vector<PacketRecord> sample_records() {
  std::vector<PacketRecord> records;
  for (int i = 0; i < 40; ++i) {
    PacketRecord r;
    r.ts = util::SimTime::micros(i * 211);
    r.remote = Ipv4Addr{20, 0, 0, static_cast<std::uint8_t>(i + 1)};
    r.bytes = i % 2 ? 1250 : 120;
    r.dir = i % 2 ? Direction::kRx : Direction::kTx;
    r.kind = i % 2 ? sim::PacketKind::kVideo : sim::PacketKind::kSignaling;
    r.ttl = static_cast<std::uint8_t>(90 + i);
    records.push_back(r);
  }
  return records;
}

/// The strict reader must refuse `damaged`; the salvage reader must
/// return exactly what it reports and reconcile against `declared`.
void expect_detected(const std::string& damaged, std::size_t declared,
                     const std::string& what) {
  EXPECT_THROW((void)parse_trace_binary(damaged, what), std::runtime_error)
      << what;
  util::SalvageReport rep;
  const TraceFile file = parse_trace_binary_salvage(damaged, &rep);
  EXPECT_EQ(file.records.size(), rep.records_recovered) << what;
  if (rep.header_valid) {
    EXPECT_EQ(rep.records_recovered + rep.records_skipped, declared) << what;
  } else {
    EXPECT_EQ(rep.bytes_discarded, damaged.size()) << what;
  }
}

TEST_F(FuzzTest, TraceReaderSurvivesBitFlips) {
  const auto original_path = dir_ / "clean.psct";
  // Interval 16 puts sync markers before records 16 and 32, so flips
  // land in markers as well as in the header and frames.
  write_trace_binary(original_path, Ipv4Addr{10, 0, 0, 1}, sample_records(),
                     16);
  const std::string clean = read_all(original_path);

  util::Rng rng{1234};
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = clean;
    const std::size_t position = rng.below(mutated.size());
    mutated[position] = static_cast<char>(
        static_cast<std::uint8_t>(mutated[position]) ^
        (1u << rng.below(8)));
    expect_detected(mutated, 40, "flip at byte " + std::to_string(position));
  }
}

TEST_F(FuzzTest, TraceReaderSurvivesTruncations) {
  const auto original_path = dir_ / "clean.psct";
  write_trace_binary(original_path, Ipv4Addr{10, 0, 0, 1}, sample_records(),
                     16);
  const std::string clean = read_all(original_path);

  util::Rng rng{77};
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t keep = rng.below(clean.size());
    expect_detected(clean.substr(0, keep), 40,
                    "truncated to " + std::to_string(keep));
  }
}

TEST_F(FuzzTest, PcapReaderSurvivesBitFlips) {
  const Ipv4Addr probe{10, 0, 0, 1};
  const auto original_path = dir_ / "clean.pcap";
  write_pcap(original_path, probe, sample_records());
  const std::string clean = read_all(original_path);

  util::Rng rng{4321};
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = clean;
    const std::size_t position = rng.below(mutated.size());
    mutated[position] = static_cast<char>(
        static_cast<std::uint8_t>(mutated[position]) ^
        (1u << rng.below(8)));
    const auto path = dir_ / "mutated.pcap";
    write_all(path, mutated);
    try {
      (void)read_pcap(path, probe);  // parse or throw, never crash
    } catch (const std::runtime_error&) {
    }
  }
  SUCCEED();
}

TEST_F(FuzzTest, MetadataStyleGarbageNeverParses) {
  util::Rng rng{5};
  for (int trial = 0; trial < 40; ++trial) {
    std::string garbage;
    const std::size_t length = 1 + rng.below(600);
    for (std::size_t i = 0; i < length; ++i) {
      garbage.push_back(static_cast<char>(rng.below(256)));
    }
    const auto path = dir_ / "garbage.psct";
    write_all(path, garbage);
    EXPECT_THROW((void)read_trace_binary(path), std::runtime_error);
    util::SalvageReport rep;
    EXPECT_TRUE(read_trace_binary_salvage(path, &rep).records.empty());
    EXPECT_FALSE(rep.header_valid);
  }
}

}  // namespace
}  // namespace peerscope::trace
