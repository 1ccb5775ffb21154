#include "aware/bandwidth.hpp"

#include <gtest/gtest.h>

namespace peerscope::aware {
namespace {

constexpr std::uint64_t kChunk = 16'250;

PairObservation contributor_with_ipg(std::int64_t ipg_ns,
                                     std::uint64_t chunks = 1,
                                     bool napa = false) {
  PairObservation obs;
  obs.rx_video_pkts = 13 * chunks;
  obs.rx_video_bytes = kChunk * chunks;
  obs.min_rx_video_ipg_ns = ipg_ns;
  obs.remote_is_napa = napa;
  return obs;
}

ExperimentObservations small_experiment() {
  ExperimentObservations data;
  data.probes.push_back(
      {net::Ipv4Addr{10, 0, 0, 1}, net::AsId{2}, net::kItaly, true, "P"});
  data.per_probe.push_back({
      contributor_with_ipg(100'000, 10),     // 100 Mb/s, heavy
      contributor_with_ipg(500'000, 4),      // 20 Mb/s
      contributor_with_ipg(26'000'000, 1),   // DSL
      contributor_with_ipg(50'000, 50, true),  // napa peer: excluded
  });
  return data;
}

TEST(ThresholdSweep, MonotoneInThreshold) {
  const auto data = small_experiment();
  const std::int64_t thresholds[] = {50'000, 1'000'000, 100'000'000};
  const auto sweep = bw_threshold_sweep(data, thresholds);
  ASSERT_EQ(sweep.size(), 3u);
  // Raising the threshold can only move peers into the preferred set.
  EXPECT_LE(sweep[0].peer_pct, sweep[1].peer_pct);
  EXPECT_LE(sweep[1].peer_pct, sweep[2].peer_pct);
  // At 50 us nothing qualifies; at 100 ms everything does.
  EXPECT_DOUBLE_EQ(sweep[0].peer_pct, 0.0);
  EXPECT_DOUBLE_EQ(sweep[2].peer_pct, 100.0);
}

TEST(ThresholdSweep, PaperThresholdSplitsClasses) {
  const auto data = small_experiment();
  const std::int64_t thresholds[] = {1'000'000};
  const auto sweep = bw_threshold_sweep(data, thresholds);
  // Two of three non-napa contributors are high-bandwidth.
  EXPECT_NEAR(sweep[0].peer_pct, 100.0 * 2 / 3, 1e-9);
  EXPECT_NEAR(sweep[0].byte_pct, 100.0 * 14 / 15, 1e-9);
}

}  // namespace
}  // namespace peerscope::aware
