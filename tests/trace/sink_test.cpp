#include "trace/sink.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/flow_equal.hpp"

namespace peerscope::trace {
namespace {

using net::Ipv4Addr;
using util::SimTime;

const Ipv4Addr kProbe{10, 0, 0, 1};
const Ipv4Addr kRemote{20, 0, 0, 9};

TEST(ProbeSink, VideoTrainRxFeedsFlowsAndRecords) {
  ProbeSink sink{kProbe, /*keep_records=*/true};
  const std::vector<SimTime> arrivals{SimTime::micros(100),
                                      SimTime::micros(200),
                                      SimTime::micros(350)};
  sink.video_train_rx(sink.flow(kRemote), arrivals, 1250, 110);

  const FlowStats* f = sink.flows().find(kRemote);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->rx_video_pkts, 3u);
  EXPECT_EQ(f->rx_video_bytes, 3750u);
  EXPECT_EQ(f->min_rx_video_ipg_ns, 100'000);
  EXPECT_EQ(f->rx_ttl, 110);
  ASSERT_EQ(sink.records().size(), 3u);
  EXPECT_EQ(sink.records()[0].dir, Direction::kRx);
}

TEST(ProbeSink, VideoTrainTxUsesInitialTtl) {
  ProbeSink sink{kProbe, true};
  const std::vector<SimTime> departures{SimTime::micros(10),
                                        SimTime::micros(20)};
  sink.video_train_tx(sink.flow(kRemote), departures, 1250);
  const FlowStats* f = sink.flows().find(kRemote);
  EXPECT_EQ(f->tx_video_pkts, 2u);
  EXPECT_FALSE(f->saw_rx);
  EXPECT_EQ(sink.records()[0].ttl, sim::kInitialTtl);
}

TEST(ProbeSink, SignalingBothDirections) {
  ProbeSink sink{kProbe, true};
  sink.signaling_tx(sink.flow(kRemote), SimTime::micros(1), 120);
  sink.signaling_rx(sink.flow(kRemote), SimTime::micros(500), 120, 105);
  const FlowStats* f = sink.flows().find(kRemote);
  EXPECT_EQ(f->tx_pkts, 1u);
  EXPECT_EQ(f->rx_pkts, 1u);
  EXPECT_EQ(f->rx_video_pkts, 0u);
  EXPECT_EQ(f->rx_ttl, 105);
}

TEST(ProbeSink, WithoutKeepRecordsStoresNothing) {
  ProbeSink sink{kProbe, false};
  sink.signaling_tx(sink.flow(kRemote), SimTime::micros(1), 120);
  EXPECT_TRUE(sink.records().empty());
  EXPECT_EQ(sink.flows().flow_count(), 1u);
  EXPECT_FALSE(sink.keeps_records());
}

TEST(ProbeSink, OfflineRebuildMatchesOnlineFlows) {
  ProbeSink sink{kProbe, true};
  const std::vector<SimTime> arrivals{SimTime::micros(100),
                                      SimTime::micros(220)};
  sink.video_train_rx(sink.flow(kRemote), arrivals, 1250, 110);
  sink.signaling_tx(sink.flow(kRemote), SimTime::micros(50), 120);

  const FlowTable rebuilt = FlowTable::from_records(kProbe, sink.records());
  const FlowStats* off = rebuilt.find(kRemote);
  const FlowStats* on = sink.flows().find(kRemote);
  ASSERT_NE(off, nullptr);
  EXPECT_EQ(off->rx_video_pkts, on->rx_video_pkts);
  EXPECT_EQ(off->min_rx_video_ipg_ns, on->min_rx_video_ipg_ns);
  EXPECT_EQ(off->tx_bytes, on->tx_bytes);
}

TEST(ProbeSink, HandleIsTheFlowFindReturns) {
  ProbeSink sink{kProbe, false};
  FlowStats& handle = sink.flow(kRemote);
  EXPECT_EQ(handle.remote, kRemote);
  EXPECT_EQ(&handle, sink.flows().find(kRemote));
  EXPECT_EQ(&handle, &sink.flow(kRemote));
  EXPECT_EQ(sink.flows().flow_count(), 1u);
}

TEST(ProbeSink, DeferredSignalingEqualsImmediateCapture) {
  // Three keepalives each way, recorded at send time and counted once
  // later, leave the flows, the totals and the records as three
  // immediate captures do.
  const std::vector<SimTime> sent{SimTime::millis(1), SimTime::millis(301),
                                  SimTime::millis(901)};
  const SimTime rtt = SimTime::millis(41);
  ProbeSink now{kProbe, true};
  ProbeSink later{kProbe, true};
  FlowStats& flow = later.flow(kRemote);
  for (const SimTime t : sent) {
    now.signaling_tx(now.flow(kRemote), t, 200);
    now.signaling_rx(now.flow(kRemote), t + rtt, 200, 112);
    later.record_signaling(flow, Direction::kTx, t, 200, sim::kInitialTtl);
    later.record_signaling(flow, Direction::kRx, t + rtt, 200, 112);
  }
  EXPECT_EQ(later.flows().total_tx_pkts(), 0u);
  later.count_signaling(flow, Direction::kTx, 200, sim::kInitialTtl,
                        sent.size(), sent.front(), sent.back());
  later.count_signaling(flow, Direction::kRx, 200, 112, sent.size(),
                        sent.front() + rtt, sent.back() + rtt);

  test::expect_same_flows(now.flows(), later.flows());
  ASSERT_EQ(now.records().size(), later.records().size());
  for (std::size_t i = 0; i < now.records().size(); ++i) {
    const PacketRecord& a = now.records()[i];
    const PacketRecord& b = later.records()[i];
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.remote, b.remote);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.dir, b.dir);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.ttl, b.ttl);
  }
}

TEST(ProbeSink, RecordSignalingWithoutKeepRecordsStoresNothing) {
  ProbeSink sink{kProbe, false};
  FlowStats& flow = sink.flow(kRemote);
  sink.record_signaling(flow, Direction::kTx, SimTime::millis(1), 200,
                        sim::kInitialTtl);
  EXPECT_TRUE(sink.records().empty());
  EXPECT_EQ(flow.tx_pkts, 0u);
}

}  // namespace
}  // namespace peerscope::trace
