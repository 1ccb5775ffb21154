// Loss-robust estimator tests: capture duplication and reordering
// fabricate near-zero inter-packet gaps and flipped TTL bytes; the
// quantile-based min-IPG and the Misra–Gries TTL mode must shrug both
// off while staying exactly equal to the plain estimators on clean
// input.
#include <gtest/gtest.h>

#include <limits>

#include "aware/observation.hpp"
#include "trace/flow.hpp"

namespace peerscope::aware {
namespace {

using net::Ipv4Addr;
using trace::Direction;
using trace::FlowTable;
using trace::PacketRecord;
using util::SimTime;

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

PacketRecord rx_video(std::int64_t ts_us, Ipv4Addr remote,
                      std::uint8_t ttl = 110) {
  PacketRecord r;
  r.ts = SimTime::micros(ts_us);
  r.remote = remote;
  r.bytes = 1250;
  r.dir = Direction::kRx;
  r.kind = sim::PacketKind::kVideo;
  r.ttl = ttl;
  return r;
}

TEST(RobustMinIpg, DiscardSkipsFabricatedGaps) {
  const std::int64_t smallest[] = {3, 8, 1000000, kMax, kMax};
  // Two duplication artifacts (3 ns, 8 ns) ahead of the real 1 ms gap.
  EXPECT_EQ(trace::robust_min_ipg(smallest, 10, 2), 1000000);
  EXPECT_EQ(trace::robust_min_ipg(smallest, 10, 0), 3);
  EXPECT_EQ(trace::robust_min_ipg(smallest, 10, -5), 3);
}

TEST(RobustMinIpg, NeverDiscardsEverySample) {
  const std::int64_t smallest[] = {40, 50, kMax, kMax, kMax};
  // Only two samples exist; discarding "3" falls back to the largest.
  EXPECT_EQ(trace::robust_min_ipg(smallest, 2, 3), 50);
}

TEST(RobustMinIpg, NoSamplesIsUnmeasurable) {
  const std::int64_t smallest[] = {kMax, kMax, kMax, kMax, kMax};
  EXPECT_EQ(trace::robust_min_ipg(smallest, 0, 2), kMax);
}

TEST(RobustFlow, CleanFlowMatchesPlainMinimum) {
  const Ipv4Addr remote{20, 0, 0, 9};
  std::vector<PacketRecord> records;
  for (int i = 0; i < 20; ++i) records.push_back(rx_video(i * 1000, remote));
  const auto table = FlowTable::from_records(Ipv4Addr{10, 0, 0, 1}, records);
  const auto* flow = table.find(remote);
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->min_rx_video_ipg_ns, 1000000);
  EXPECT_EQ(flow->min_ipg_after_discard(0), flow->min_rx_video_ipg_ns);
  // All real gaps are identical, so discarding still lands on 1 ms.
  EXPECT_EQ(flow->min_ipg_after_discard(2), 1000000);
  EXPECT_EQ(flow->rx_ipg_samples, 19u);
}

TEST(RobustFlow, DuplicationArtifactsAreDiscarded) {
  const Ipv4Addr remote{20, 0, 0, 9};
  std::vector<PacketRecord> records;
  for (int i = 0; i < 20; ++i) records.push_back(rx_video(i * 1000, remote));
  // Two capture duplicates, 5 us after the original.
  records.push_back(rx_video(4 * 1000 + 5, remote));
  records.push_back(rx_video(9 * 1000 + 5, remote));
  const auto table = FlowTable::from_records(Ipv4Addr{10, 0, 0, 1}, records);
  const auto* flow = table.find(remote);
  ASSERT_NE(flow, nullptr);
  // The plain minimum is poisoned; the robust one recovers ~1 ms.
  EXPECT_EQ(flow->min_rx_video_ipg_ns, 5000);
  EXPECT_EQ(flow->min_ipg_after_discard(2), 995000);
}

TEST(RobustFlow, TtlModeIgnoresCorruptedBytes) {
  const Ipv4Addr remote{20, 0, 0, 9};
  std::vector<PacketRecord> records;
  for (int i = 0; i < 30; ++i) records.push_back(rx_video(i * 1000, remote));
  // Three flipped TTL bytes, one of them on the very last packet — the
  // last-seen estimator inherits it, the mode does not.
  records[7].ttl = 55;
  records[19].ttl = 201;
  records[29].ttl = 17;
  const auto table = FlowTable::from_records(Ipv4Addr{10, 0, 0, 1}, records);
  const auto* flow = table.find(remote);
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->rx_ttl, 17);  // last-seen is poisoned
  EXPECT_EQ(flow->rx_ttl_mode(), 110);
}

TEST(RobustFlow, TtlModeEqualsLastSeenOnCleanFlow) {
  const Ipv4Addr remote{20, 0, 0, 9};
  std::vector<PacketRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(rx_video(i * 1000, remote, 121));
  }
  const auto table = FlowTable::from_records(Ipv4Addr{10, 0, 0, 1}, records);
  const auto* flow = table.find(remote);
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->rx_ttl_mode(), flow->rx_ttl);
}

TEST(RobustObservation, HandBuiltObservationFallsBackToPlainMin) {
  // Analyses that construct PairObservation directly (older tests,
  // external joins) never fill the k-smallest array; the robust
  // accessor must degrade to the plain minimum, not int64 max.
  PairObservation obs;
  obs.min_rx_video_ipg_ns = 250000;
  EXPECT_EQ(obs.min_ipg_after_discard(2), 250000);
  EXPECT_EQ(obs.min_ipg_after_discard(0), 250000);
}

TEST(RobustObservation, CapacityEstimateUsesDiscard) {
  PairObservation obs;
  obs.min_rx_video_ipg_ns = 10;  // fabricated duplicate gap: 1000 Gb/s
  obs.smallest_rx_ipgs = {10, 1000000, 1000000, 1000000, 1000000};
  obs.rx_ipg_samples = 50;

  // The plain minimum is the absurd 10 ns gap; discarding one sample
  // recovers 1 ms, i.e. 1250 B / 1 ms = 10 Mb/s.
  EXPECT_EQ(obs.min_ipg_after_discard(0), 10);
  EXPECT_EQ(obs.min_ipg_after_discard(1), 1000000);
}

}  // namespace
}  // namespace peerscope::aware
