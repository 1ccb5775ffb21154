// Storage chaos matrix: every fault class, against every injection
// point, against every artifact consumer. The contract under test is
// the tentpole's no-silent-truncation guarantee:
//
//   * a faulted WRITE either completes (transient faults are absorbed
//     by retry loops) or throws — and on throw the destination is
//     never partial: it keeps its previous contents or does not
//     exist, and no temp file is leaked;
//   * a faulted/corrupted READ either returns complete data, throws
//     (strict), or — in salvage mode — returns a report whose
//     accounting reconciles exactly against what the writer declared.
//
// Every cell must land in one of those documented outcomes; a crash,
// hang, or silently short artifact fails the suite. The CLI-level
// half of the matrix (exit codes, metrics sidecars) lives in
// tools/chaos_sweep.sh.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/journal.hpp"
#include "exp/runner.hpp"
#include "net/topology.hpp"
#include "support/scratch_dir.hpp"
#include "trace/binary_format.hpp"
#include "trace/pcap.hpp"
#include "util/io_faults.hpp"

namespace peerscope {
namespace {

using net::Ipv4Addr;
using util::io::FaultPlan;

class ChaosMatrixTest : public ::testing::Test {
 protected:
  void TearDown() override { util::io::clear_faults(); }

  std::string slurp(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  void expect_no_temp_litter(const std::string& cell) {
    for (const auto& entry :
         std::filesystem::directory_iterator(dir_.path())) {
      EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                std::string::npos)
          << cell << ": leaked temp file " << entry.path();
    }
  }

  const test::ScratchDir dir_{"peerscope_chaos"};
};

std::vector<trace::PacketRecord> chaos_records(std::size_t n) {
  std::vector<trace::PacketRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    trace::PacketRecord r;
    r.ts = util::SimTime{static_cast<std::int64_t>(i * 131 + 7)};
    r.remote = Ipv4Addr{static_cast<std::uint32_t>(0x14000000 + i)};
    r.bytes = static_cast<std::int32_t>(64 + i % 1300);
    r.dir = i % 2 ? trace::Direction::kTx : trace::Direction::kRx;
    r.kind = i % 4 ? sim::PacketKind::kVideo : sim::PacketKind::kSignaling;
    r.ttl = static_cast<std::uint8_t>(96 + i % 32);
    records.push_back(r);
  }
  return records;
}

// One writer consumer the matrix drives; `write` throws on hard
// faults, `valid` strict-reads the artifact back.
struct WriterCell {
  const char* name;
  void (*write)(const std::filesystem::path&,
                const std::vector<trace::PacketRecord>&);
  bool (*valid)(const std::filesystem::path&,
                const std::vector<trace::PacketRecord>&);
};

const WriterCell kWriters[] = {
    {"binary-trace",
     [](const std::filesystem::path& p,
        const std::vector<trace::PacketRecord>& r) {
       trace::write_trace_binary(p, Ipv4Addr{0x0a000001}, r, 32);
     },
     [](const std::filesystem::path& p,
        const std::vector<trace::PacketRecord>& r) {
       return trace::read_trace_binary(p).records.size() == r.size();
     }},
    {"pcap",
     [](const std::filesystem::path& p,
        const std::vector<trace::PacketRecord>& r) {
       trace::write_pcap(p, Ipv4Addr{0x0a000001}, r);
     },
     [](const std::filesystem::path& p,
        const std::vector<trace::PacketRecord>& r) {
       return trace::read_pcap(p, Ipv4Addr{0x0a000001}).size() == r.size();
     }},
};

// Transient faults must be absorbed: the write completes and the
// artifact strict-reads back whole.
TEST_F(ChaosMatrixTest, TransientWriteFaultsAreAbsorbedByEveryWriter) {
  const auto records = chaos_records(200);
  const char* schedules[] = {"eintr@5", "short-write@13",
                             "eintr@2,short-write@3,short-write@900"};
  for (const auto& writer : kWriters) {
    for (const char* spec : schedules) {
      const std::string cell =
          std::string{writer.name} + " x " + spec;
      util::io::install_faults(FaultPlan::parse(spec));
      const auto path = dir_ / (cell + ".bin");
      ASSERT_NO_THROW(writer.write(path, records)) << cell;
      EXPECT_TRUE(writer.valid(path, records)) << cell;
      expect_no_temp_litter(cell);
    }
  }
}

// Hard faults must fail loudly and atomically: exception out, temp
// cleaned, previous version intact.
TEST_F(ChaosMatrixTest, HardWriteFaultsFailCleanlyForEveryWriter) {
  const auto records = chaos_records(200);
  const char* schedules[] = {"enospc@500", "fsync-fail", "rename-fail"};
  for (const auto& writer : kWriters) {
    for (const char* spec : schedules) {
      const std::string cell =
          std::string{writer.name} + " x " + spec;
      const auto path = dir_ / (cell + ".bin");
      // Seed a previous version the failed overwrite must not damage.
      util::io::clear_faults();
      writer.write(path, chaos_records(10));
      const std::string before = slurp(path);

      util::io::install_faults(
          FaultPlan::parse(std::string{spec} + ":" + cell));
      EXPECT_THROW(writer.write(path, records), std::runtime_error)
          << cell;
      expect_no_temp_litter(cell);
      EXPECT_EQ(slurp(path), before) << cell << ": destination changed";
    }
  }
}

// A bit flip slips past the write path (the disk lied) — the binary
// format's CRCs must catch it on read, strictly or with accounting.
TEST_F(ChaosMatrixTest, BitflipsAreCaughtOnReadWithExactAccounting) {
  const auto records = chaos_records(500);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::string cell = "bitflip seed=" + std::to_string(seed);
    util::io::install_faults(FaultPlan::parse("bitflip", seed));
    const auto path = dir_ / (cell + ".psct");
    trace::write_trace_binary(path, Ipv4Addr{0x0a000001}, records, 32);
    ASSERT_EQ(util::io::fault_counters().bitflips, 1u) << cell;
    util::io::clear_faults();

    // Strict: corruption is never silently returned. (A flip inside a
    // sync marker or frame header may still parse the records
    // themselves — every payload is independently checksummed — so
    // "throws" is not guaranteed; "correct or throws" is.)
    try {
      const trace::TraceFile strict = trace::read_trace_binary(path);
      ASSERT_EQ(strict.records.size(), records.size()) << cell;
    } catch (const std::runtime_error&) {
      // Documented outcome: detection.
    }

    // Salvage: never throws, and the ledger reconciles exactly.
    util::SalvageReport rep;
    const trace::TraceFile got = trace::read_trace_binary_salvage(path, &rep);
    ASSERT_TRUE(rep.header_valid || got.records.empty()) << cell;
    if (rep.header_valid) {
      EXPECT_EQ(rep.records_recovered + rep.records_skipped, records.size())
          << cell << ": salvage accounting does not reconcile";
      EXPECT_EQ(got.records.size(), rep.records_recovered) << cell;
    }
  }
}

// Read-side faults against every reader: strict readers throw or
// succeed, salvage readers account, nothing crashes.
TEST_F(ChaosMatrixTest, ShortReadsNeverYieldSilentlyTruncatedData) {
  const auto records = chaos_records(300);
  const auto path = dir_ / "short_read.psct";
  trace::write_trace_binary(path, Ipv4Addr{0x0a000001}, records, 32);

  for (const char* spec : {"short-read@100", "short-read", "eintr@4"}) {
    const std::string cell = std::string{"binary x "} + spec;
    util::io::install_faults(FaultPlan::parse(spec));
    try {
      const auto got = trace::read_trace_binary(path);
      EXPECT_EQ(got.records.size(), records.size()) << cell;
    } catch (const std::runtime_error&) {
      // Truncation detected — documented outcome.
    }

    util::io::install_faults(FaultPlan::parse(spec));
    util::SalvageReport rep;
    const auto got = trace::read_trace_binary_salvage(path, &rep);
    EXPECT_EQ(got.records.size(), rep.records_recovered) << cell;
    if (rep.header_valid) {
      EXPECT_EQ(rep.records_recovered + rep.records_skipped,
                records.size())
          << cell;
    }
  }
}

// The journal blob consumer: a faulted write of the result blob must
// never leave a blob that read_run_result trusts.
TEST_F(ChaosMatrixTest, JournalBlobFaultsReadBackAsUnfinishedNotWrong) {
  const net::AsTopology topo = net::make_reference_topology();
  exp::RunSpec spec;
  spec.profile = p2p::SystemProfile::tvants();
  spec.profile.population.background_peers = 60;
  spec.seed = 11;
  spec.duration = util::SimTime::seconds(10);
  const exp::RunResult result = exp::run_experiment(topo, spec);

  for (const char* fault :
       {"enospc@64", "fsync-fail", "rename-fail", "bitflip@1200"}) {
    const std::string cell = std::string{"blob x "} + fault;
    const auto path =
        dir_ / (std::string{"r_"} + fault[0] + std::to_string(cell.size()) +
                ".result");
    util::io::install_faults(
        FaultPlan::parse(std::string{fault} + ":" + path.filename().string()));
    bool threw = false;
    try {
      exp::write_run_result(path, result);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    util::io::clear_faults();
    const auto reloaded = exp::read_run_result(path);
    if (threw) {
      // Hard fault: the atomic writer must have left no blob at all
      // (or the previous one — none here).
      EXPECT_FALSE(std::filesystem::exists(path)) << cell;
    }
    // Whatever happened, a reloaded blob is either complete and
    // CRC-clean or rejected; never a half-result.
    if (reloaded.has_value()) {
      EXPECT_EQ(reloaded->counters.chunks_delivered,
                result.counters.chunks_delivered)
          << cell;
    }
    expect_no_temp_litter(cell);
  }
}

// Exhaustive seed sweep: one random flip anywhere in the file — header,
// marker, frame, payload — must always land in a documented outcome.
TEST_F(ChaosMatrixTest, RandomSingleFlipSweepAlwaysReconciles) {
  const auto records = chaos_records(400);
  const auto path = dir_ / "sweep.psct";
  trace::write_trace_binary(path, Ipv4Addr{0x0a000001}, records, 64);
  const std::string clean = slurp(path);

  std::uint64_t lcg = 0x243f6a8885a308d3ull;  // fixed: runs reproduce
  for (int trial = 0; trial < 200; ++trial) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t bit = (lcg >> 11) % (clean.size() * 8);
    std::string buf = clean;
    buf[bit / 8] ^= static_cast<char>(1u << (bit % 8));

    util::SalvageReport rep;
    const trace::TraceFile got =
        trace::parse_trace_binary_salvage(buf, &rep);
    const std::string cell = "flip bit " + std::to_string(bit);
    EXPECT_EQ(got.records.size(), rep.records_recovered) << cell;
    if (rep.header_valid) {
      EXPECT_EQ(rep.records_recovered + rep.records_skipped,
                records.size())
          << cell;
    } else {
      EXPECT_EQ(rep.records_recovered, 0u) << cell;
      EXPECT_EQ(rep.bytes_discarded, buf.size()) << cell;
    }
  }
}

}  // namespace
}  // namespace peerscope
