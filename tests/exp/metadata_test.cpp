#include "exp/metadata.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "support/scratch_dir.hpp"

namespace peerscope::exp {
namespace {

class MetadataTest : public ::testing::Test {
 protected:
  const test::ScratchDir dir_{"peerscope_meta_test"};
};

ExperimentMetadata sample() {
  ExperimentMetadata meta;
  meta.app = "TVAnts";
  meta.duration = util::SimTime::seconds(300);
  meta.probes.push_back({net::Ipv4Addr{20, 0, 0, 1}, net::AsId{2},
                         net::kItaly, true, "PoliTO-1"});
  meta.probes.push_back({net::Ipv4Addr{20, 1, 255, 3}, net::AsId{11},
                         net::kHungary, false, "BME-5"});
  meta.announcements.push_back(
      {*net::Ipv4Prefix::parse("20.0.0.0/16"), net::AsId{2}, net::kItaly});
  meta.announcements.push_back({*net::Ipv4Prefix::parse("20.1.0.0/16"),
                                net::AsId{11}, net::kHungary});
  return meta;
}

TEST_F(MetadataTest, RoundTrip) {
  const auto path = dir_ / "experiment.meta";
  write_metadata(path, sample());
  const ExperimentMetadata loaded = read_metadata(path);

  EXPECT_EQ(loaded.app, "TVAnts");
  EXPECT_EQ(loaded.duration, util::SimTime::seconds(300));
  ASSERT_EQ(loaded.probes.size(), 2u);
  EXPECT_EQ(loaded.probes[0].addr, (net::Ipv4Addr{20, 0, 0, 1}));
  EXPECT_EQ(loaded.probes[0].as, net::AsId{2});
  EXPECT_EQ(loaded.probes[0].cc, net::kItaly);
  EXPECT_TRUE(loaded.probes[0].high_bw);
  EXPECT_EQ(loaded.probes[0].label, "PoliTO-1");
  EXPECT_FALSE(loaded.probes[1].high_bw);
  ASSERT_EQ(loaded.announcements.size(), 2u);
  EXPECT_EQ(loaded.announcements[0].prefix.to_string(), "20.0.0.0/16");
}

TEST_F(MetadataTest, RebuiltRegistryResolves) {
  const auto path = dir_ / "experiment.meta";
  write_metadata(path, sample());
  const auto loaded = read_metadata(path);
  const auto registry = loaded.build_registry();
  EXPECT_EQ(registry.as_of(net::Ipv4Addr{20, 0, 9, 9}), net::AsId{2});
  EXPECT_EQ(registry.country_of(net::Ipv4Addr{20, 1, 0, 1}), net::kHungary);
  const auto napa = loaded.napa_set();
  EXPECT_EQ(napa.size(), 2u);
  EXPECT_TRUE(napa.contains(net::Ipv4Addr{20, 0, 0, 1}));
}

TEST_F(MetadataTest, MissingFileThrows) {
  EXPECT_THROW((void)read_metadata(dir_ / "absent.meta"),
               std::runtime_error);
}

TEST_F(MetadataTest, BadHeaderThrows) {
  const auto path = dir_ / "bad.meta";
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::ofstream(path) << "not-a-meta-file 9\n";
  EXPECT_THROW((void)read_metadata(path), std::runtime_error);
}

TEST_F(MetadataTest, MalformedProbeLineThrows) {
  const auto path = dir_ / "mangled.meta";
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::ofstream(path) << "peerscope-meta 1\napp X\nduration_ns 5\n"
                      << "probe 999.1.1.1 2 IT 1 L\n";
  EXPECT_THROW((void)read_metadata(path), std::runtime_error);
}

TEST_F(MetadataTest, UnknownKeyThrows) {
  const auto path = dir_ / "unknown.meta";
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::ofstream(path) << "peerscope-meta 1\nbogus value\n";
  EXPECT_THROW((void)read_metadata(path), std::runtime_error);
}

TEST_F(MetadataTest, IncompleteThrows) {
  const auto path = dir_ / "incomplete.meta";
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::ofstream(path) << "peerscope-meta 1\napp X\n";  // no probes
  EXPECT_THROW((void)read_metadata(path), std::runtime_error);
}

TEST(RegistryDump, RoundTripsThroughMetadata) {
  net::NetRegistry registry;
  registry.announce(*net::Ipv4Prefix::parse("30.0.0.0/16"), net::AsId{210},
                    net::kChina);
  registry.announce(*net::Ipv4Prefix::parse("20.0.0.0/16"), net::AsId{2},
                    net::kItaly);
  const auto dump = registry.dump();
  ASSERT_EQ(dump.size(), 2u);
  // Sorted by prefix base.
  EXPECT_EQ(dump[0].as, net::AsId{2});
  EXPECT_EQ(dump[1].as, net::AsId{210});
  EXPECT_EQ(dump[1].country, net::kChina);
}

}  // namespace
}  // namespace peerscope::exp
