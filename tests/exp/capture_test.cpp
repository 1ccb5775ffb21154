#include "exp/capture.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <vector>

#include "exp/metadata.hpp"
#include "exp/testbed.hpp"
#include "support/scratch_dir.hpp"
#include "trace/binary_format.hpp"

namespace peerscope::exp {
namespace {

class CaptureTest : public ::testing::Test {
 protected:
  ExperimentMetadata sample_meta() {
    ExperimentMetadata meta;
    meta.app = "TVAnts";
    meta.duration = util::SimTime::seconds(60);
    meta.probes.push_back({net::Ipv4Addr{20, 0, 0, 1}, net::AsId{2},
                           net::kItaly, true, "PoliTO-1"});
    meta.probes.push_back({net::Ipv4Addr{20, 1, 0, 3}, net::AsId{11},
                           net::kHungary, false, "BME-1"});
    meta.announcements.push_back({*net::Ipv4Prefix::parse("20.0.0.0/16"),
                                  net::AsId{2}, net::kItaly});
    meta.announcements.push_back({*net::Ipv4Prefix::parse("20.1.0.0/16"),
                                  net::AsId{11}, net::kHungary});
    return meta;
  }

  std::vector<trace::PacketRecord> sample_records() {
    std::vector<trace::PacketRecord> records;
    trace::PacketRecord r;
    r.ts = util::SimTime::millis(10);
    r.remote = net::Ipv4Addr{20, 1, 0, 3};
    r.bytes = 1200;
    r.dir = trace::Direction::kRx;
    r.kind = sim::PacketKind::kVideo;
    r.ttl = 60;
    records.push_back(r);
    r.ts = util::SimTime::millis(20);
    r.dir = trace::Direction::kTx;
    records.push_back(r);
    return records;
  }

  /// Writes a complete two-probe capture into dir_.
  void write_capture() {
    const auto meta = sample_meta();
    for (const auto& probe : meta.probes) {
      trace::write_trace_binary(
          dir_ / ExperimentMetadata::trace_filename(probe.label),
          probe.addr, sample_records());
    }
    write_metadata(dir_ / "experiment.meta", meta);
  }

  const test::ScratchDir dir_{"peerscope_capture_test"};
};

TEST_F(CaptureTest, LoadsCompleteCapture) {
  write_capture();
  const CaptureLoad load = load_capture(dir_.path(), /*salvage=*/false);
  EXPECT_TRUE(load.clean());
  EXPECT_EQ(load.data.app, "TVAnts");
  ASSERT_EQ(load.data.per_probe.size(), 2u);
  EXPECT_FALSE(load.data.per_probe[0].empty());
}

TEST_F(CaptureTest, MissingDirectoryThrows) {
  EXPECT_THROW((void)load_capture(dir_ / "nope", false), CaptureError);
}

TEST_F(CaptureTest, PathThatIsAFileThrows) {
  const auto file = dir_ / "plain.txt";
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::ofstream(file) << "not a directory";
  EXPECT_THROW((void)load_capture(file, false), CaptureError);
}

TEST_F(CaptureTest, EmptyDirectoryThrowsWithDiagnostic) {
  try {
    (void)load_capture(dir_.path(), false);
    FAIL() << "expected CaptureError";
  } catch (const CaptureError& error) {
    EXPECT_NE(std::string{error.what()}.find("empty"), std::string::npos);
  }
}

TEST_F(CaptureTest, NonCaptureDirectoryThrows) {
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::ofstream(dir_ / "random.txt") << "hello";
  try {
    (void)load_capture(dir_.path(), false);
    FAIL() << "expected CaptureError";
  } catch (const CaptureError& error) {
    EXPECT_NE(std::string{error.what()}.find("experiment.meta"),
              std::string::npos);
  }
}

TEST_F(CaptureTest, CorruptMetadataThrows) {
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::ofstream(dir_ / "experiment.meta") << "garbage header\n";
  try {
    (void)load_capture(dir_.path(), false);
    FAIL() << "expected CaptureError";
  } catch (const CaptureError& error) {
    EXPECT_NE(std::string{error.what()}.find("unreadable metadata"),
              std::string::npos);
  }
}

TEST_F(CaptureTest, MissingTraceThrowsAndSuggestsSalvage) {
  write_capture();
  std::filesystem::remove(dir_ /
                          ExperimentMetadata::trace_filename("BME-1"));
  try {
    (void)load_capture(dir_.path(), false);
    FAIL() << "expected CaptureError";
  } catch (const CaptureError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("BME-1"), std::string::npos);
    EXPECT_NE(what.find("--salvage"), std::string::npos);
  }
}

TEST_F(CaptureTest, SalvageToleratesMissingTraceAndKeepsSlot) {
  write_capture();
  std::filesystem::remove(dir_ /
                          ExperimentMetadata::trace_filename("BME-1"));
  const CaptureLoad load = load_capture(dir_.path(), /*salvage=*/true);
  EXPECT_FALSE(load.clean());
  EXPECT_EQ(load.probes_lost, 1u);
  ASSERT_EQ(load.data.per_probe.size(), 2u);  // alignment preserved
  EXPECT_FALSE(load.data.per_probe[0].empty());
  EXPECT_TRUE(load.data.per_probe[1].empty());
  ASSERT_EQ(load.notes.size(), 1u);
  EXPECT_NE(load.notes[0].find("BME-1"), std::string::npos);
}

TEST_F(CaptureTest, SalvageToleratesCorruptTrace) {
  write_capture();
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::ofstream(dir_ / ExperimentMetadata::trace_filename("BME-1"),
                std::ios::binary | std::ios::trunc)
      << "trash bytes, not a trace";
  const CaptureLoad load = load_capture(dir_.path(), /*salvage=*/true);
  EXPECT_EQ(load.probes_lost, 1u);  // header invalid -> probe lost
  ASSERT_EQ(load.data.per_probe.size(), 2u);
  EXPECT_TRUE(load.data.per_probe[1].empty());
  EXPECT_FALSE(load.notes.empty());
}

TEST_F(CaptureTest, CorruptTraceWithoutSalvageThrows) {
  write_capture();
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::ofstream(dir_ / ExperimentMetadata::trace_filename("BME-1"),
                std::ios::binary | std::ios::trunc)
      << "trash bytes, not a trace";
  try {
    (void)load_capture(dir_.path(), false);
    FAIL() << "expected CaptureError";
  } catch (const CaptureError& error) {
    EXPECT_NE(std::string{error.what()}.find("--salvage"),
              std::string::npos);
  }
}

TEST_F(CaptureTest, WrittenTracesKeepCaptureOrderWithinTies) {
  // A swarm capture holds record_before ties (one stamp, remote and
  // direction), some between records that differ, such as a request
  // and a keepalive to one partner; this one has reordering and
  // duplication on too. Each PSBT file must hold its sink's records
  // stably sorted, so tied records keep capture order whatever the
  // library's sort does with ties. The member write_capture() hides
  // exp::write_capture, hence the qualified call.
  RunSpec spec;
  spec.profile = p2p::SystemProfile::tvants();
  spec.profile.population.background_peers = 120;
  spec.seed = 3;
  spec.duration = util::SimTime::seconds(10);
  spec.keep_records = true;
  spec.impairment.reorder_rate = 0.05;
  spec.impairment.duplicate_rate = 0.05;
  p2p::SwarmConfig config;
  config.profile = spec.profile;
  config.seed = spec.seed;
  config.duration = spec.duration;
  config.keep_records = spec.keep_records;
  config.impairment = spec.impairment;
  const net::AsTopology topo = net::make_reference_topology();
  const Testbed testbed = Testbed::table1();
  p2p::Swarm swarm{topo, testbed.probes(), config};
  swarm.run();
  exp::write_capture(swarm, spec, CaptureTarget{dir_.path()});

  const auto same = [](const trace::PacketRecord& a,
                       const trace::PacketRecord& b) {
    return a.ts == b.ts && a.remote == b.remote && a.bytes == b.bytes &&
           a.dir == b.dir && a.kind == b.kind && a.ttl == b.ttl;
  };
  std::size_t differing_ties = 0;
  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    const std::string label = swarm.population().probe_specs()[i].label();
    SCOPED_TRACE(label);
    std::vector<trace::PacketRecord> want = swarm.sink(i).records();
    std::stable_sort(want.begin(), want.end(), trace::record_before);
    const trace::TraceFile file = trace::read_trace_binary(
        dir_ / ExperimentMetadata::trace_filename(label));
    ASSERT_EQ(file.records.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_TRUE(same(file.records[k], want[k])) << "record " << k;
      if (k > 0 && !trace::record_before(want[k - 1], want[k]) &&
          !same(want[k - 1], want[k])) {
        ++differing_ties;
      }
    }
  }
  EXPECT_GT(differing_ties, 0u);
}

}  // namespace
}  // namespace peerscope::exp
