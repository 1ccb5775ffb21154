#include "exp/extensions.hpp"

#include <gtest/gtest.h>

namespace peerscope::exp {
namespace {

TEST(Sensitivity, FoldsReplicationsIntoDistributions) {
  const net::AsTopology topo = net::make_reference_topology();
  p2p::SystemProfile profile = p2p::SystemProfile::tvants();
  profile.population.background_peers = 120;
  const std::uint64_t seeds[] = {1, 2, 3};
  util::ThreadPool pool{2};

  const SensitivityResult result = run_sensitivity(
      topo, profile, util::SimTime::seconds(20), seeds, pool);

  EXPECT_EQ(result.app, "TVAnts");
  EXPECT_EQ(result.replications, 3u);
  ASSERT_EQ(result.metrics.size(), 5u);
  EXPECT_EQ(result.metrics[0].metric, aware::Metric::kBw);

  // Every replication contributes to evaluable cells.
  EXPECT_EQ(result.metrics[0].download.b_prime.count(), 3u);
  EXPECT_EQ(result.metrics[1].download.p.count(), 3u);
  // BW upload is never evaluable.
  EXPECT_EQ(result.metrics[0].upload.b.count(), 0u);
  // NET primes are structurally suppressed.
  EXPECT_EQ(result.metrics[3].download.b_prime.count(), 0u);

  // The BW preference must be robustly strong in every replication.
  EXPECT_GT(result.metrics[0].download.b_prime.min(), 60.0);
  EXPECT_EQ(result.rx_kbps_mean.count(), 3u);
  EXPECT_GT(result.rx_kbps_mean.mean(), 200.0);
  EXPECT_EQ(result.self_bias_bytes_pct.count(), 3u);
}

TEST(Sensitivity, DistinctSeedsProduceSpread) {
  const net::AsTopology topo = net::make_reference_topology();
  p2p::SystemProfile profile = p2p::SystemProfile::tvants();
  profile.population.background_peers = 120;
  const std::uint64_t seeds[] = {10, 11, 12, 13};
  util::ThreadPool pool{2};
  const SensitivityResult result = run_sensitivity(
      topo, profile, util::SimTime::seconds(15), seeds, pool);
  // Run-to-run noise exists (stddev strictly positive) but does not
  // destroy the headline statistic.
  EXPECT_GT(result.metrics[0].download.b_prime.stddev(), 0.0);
  EXPECT_LT(result.metrics[0].download.b_prime.stddev(), 20.0);
}

}  // namespace
}  // namespace peerscope::exp
