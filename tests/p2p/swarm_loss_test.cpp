// Failure injection: random packet loss must degrade volumes smoothly
// without breaking the measurement pipeline — the min-IPG classifier,
// in particular, is loss-robust by construction (a missing packet only
// widens a gap, never narrows it).
#include <gtest/gtest.h>

#include "aware/report.hpp"
#include "exp/runner.hpp"
#include "exp/testbed.hpp"
#include "p2p/swarm.hpp"

namespace peerscope::p2p {
namespace {

using util::SimTime;

const net::AsTopology& topo() {
  static const net::AsTopology t = net::make_reference_topology();
  return t;
}

SwarmConfig config_with_loss(double loss) {
  SwarmConfig cfg;
  cfg.profile = SystemProfile::tvants();
  cfg.profile.population.background_peers = 150;
  cfg.seed = 33;
  cfg.duration = SimTime::seconds(30);
  cfg.impairment.loss_rate = loss;
  return cfg;
}

std::uint64_t total_rx(const Swarm& swarm) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    total += swarm.sink(i).flows().total_rx_bytes();
  }
  return total;
}

TEST(SwarmLoss, ZeroLossIsDefaultBehaviour) {
  Swarm a{topo(), table1_probes(), config_with_loss(0.0)};
  SwarmConfig plain = config_with_loss(0.0);
  Swarm b{topo(), table1_probes(), plain};
  a.run();
  b.run();
  EXPECT_EQ(total_rx(a), total_rx(b));
}

TEST(SwarmLoss, LossReducesReceivedVolumeProportionally) {
  Swarm lossless{topo(), table1_probes(), config_with_loss(0.0)};
  Swarm lossy{topo(), table1_probes(), config_with_loss(0.10)};
  lossless.run();
  lossy.run();
  const auto clean = static_cast<double>(total_rx(lossless));
  const auto dropped = static_cast<double>(total_rx(lossy));
  // RX volume shrinks, but not catastrophically (retries + signaling
  // unaffected): expect roughly the loss rate's worth of missing video.
  EXPECT_LT(dropped, clean);
  EXPECT_GT(dropped, clean * 0.75);
}

TEST(SwarmLoss, StreamStillDeliversUnderLoss) {
  Swarm swarm{topo(), table1_probes(), config_with_loss(0.05)};
  swarm.run();
  // Probes keep receiving near the stream rate.
  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    const double kbps =
        static_cast<double>(swarm.sink(i).flows().total_rx_bytes()) * 8.0 /
        swarm.duration().seconds() / 1e3;
    EXPECT_GT(kbps, 200.0) << "probe " << i;
  }
}

TEST(SwarmLoss, BwClassificationSurvivesLoss) {
  // Losing packets widens gaps; it must never turn a low-bandwidth
  // path into a "high-bandwidth" classification or collapse the BW
  // preference.
  SwarmConfig cfg = config_with_loss(0.08);
  Swarm swarm{topo(), table1_probes(), cfg};
  swarm.run();
  aware::ExperimentObservations data;
  data.app = "lossy";
  data.duration = swarm.duration();
  const auto& pop = swarm.population();
  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    const auto& info = pop.peer(pop.probe_ids()[i]);
    data.probes.push_back({info.ep.addr, info.ep.as, info.ep.country,
                           info.access.is_high_bandwidth(), "p"});
    data.per_probe.push_back(aware::extract_observations(
        swarm.sink(i).flows(), pop.registry(), pop.probe_addrs()));
  }
  const auto rows = aware::awareness_table(data);
  ASSERT_TRUE(rows[0].download.b_prime_pct.has_value());
  EXPECT_GT(*rows[0].download.b_prime_pct, 85.0);
}

TEST(SwarmLoss, FullLossDeliversNothingButTerminates) {
  SwarmConfig cfg = config_with_loss(1.0);
  cfg.duration = SimTime::seconds(10);
  Swarm swarm{topo(), table1_probes(), cfg};
  swarm.run();  // must not hang or throw
  EXPECT_EQ(swarm.counters().chunks_delivered, 0u);
  EXPECT_GT(swarm.counters().timeouts, 0u);
}

}  // namespace
}  // namespace peerscope::p2p
