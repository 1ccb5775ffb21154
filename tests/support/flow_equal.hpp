// Field-for-field equality of two flow tables, for the oracles that
// check one way of building a FlowTable against another (per run
// against per record, online capture against the offline rebuild).
// Every FlowStats field is compared, so a field added to FlowStats
// belongs here too.
#pragma once

#include <gtest/gtest.h>

#include "trace/flow.hpp"

namespace peerscope::test {

inline void expect_same_flow(const trace::FlowStats& want,
                             const trace::FlowStats& got) {
  SCOPED_TRACE("remote " + want.remote.to_string());
  EXPECT_EQ(want.remote, got.remote);
  EXPECT_EQ(want.rx_pkts, got.rx_pkts);
  EXPECT_EQ(want.rx_bytes, got.rx_bytes);
  EXPECT_EQ(want.tx_pkts, got.tx_pkts);
  EXPECT_EQ(want.tx_bytes, got.tx_bytes);
  EXPECT_EQ(want.rx_video_pkts, got.rx_video_pkts);
  EXPECT_EQ(want.rx_video_bytes, got.rx_video_bytes);
  EXPECT_EQ(want.tx_video_pkts, got.tx_video_pkts);
  EXPECT_EQ(want.tx_video_bytes, got.tx_video_bytes);
  EXPECT_EQ(want.min_rx_video_ipg_ns, got.min_rx_video_ipg_ns);
  EXPECT_EQ(want.smallest_rx_ipgs, got.smallest_rx_ipgs);
  EXPECT_EQ(want.rx_ipg_samples, got.rx_ipg_samples);
  EXPECT_EQ(want.rx_ttl, got.rx_ttl);
  EXPECT_EQ(want.saw_rx, got.saw_rx);
  EXPECT_EQ(want.ttl_candidates, got.ttl_candidates);
  EXPECT_EQ(want.ttl_counts, got.ttl_counts);
  EXPECT_EQ(want.rx_ttl_mode(), got.rx_ttl_mode());
  EXPECT_EQ(want.first_ts, got.first_ts);
  EXPECT_EQ(want.last_ts, got.last_ts);
  if (want.rx_video_pkts > 0) {
    EXPECT_EQ(want.last_rx_video_ts, got.last_rx_video_ts);
  }
}

/// Same flows (every field), same totals. Iteration order is not
/// compared: tables built from the same packets in different orders
/// hash their keys in different orders.
inline void expect_same_flows(const trace::FlowTable& want,
                              const trace::FlowTable& got) {
  ASSERT_EQ(want.flow_count(), got.flow_count());
  for (const auto& [remote, flow] : want.flows()) {
    const trace::FlowStats* other = got.find(remote);
    ASSERT_NE(other, nullptr) << remote.to_string();
    expect_same_flow(flow, *other);
  }
  EXPECT_EQ(want.total_rx_bytes(), got.total_rx_bytes());
  EXPECT_EQ(want.total_tx_bytes(), got.total_tx_bytes());
  EXPECT_EQ(want.total_rx_pkts(), got.total_rx_pkts());
  EXPECT_EQ(want.total_tx_pkts(), got.total_tx_pkts());
}

/// Same keys in the same iteration order: the order
/// aware::extract_observations walks, so downstream sums follow it.
/// Holds when both tables saw their keys first in the same sequence.
inline void expect_same_order(const trace::FlowTable& want,
                              const trace::FlowTable& got) {
  ASSERT_EQ(want.flow_count(), got.flow_count());
  auto other = got.flows().begin();
  for (const auto& [remote, flow] : want.flows()) {
    EXPECT_EQ(remote, other->first);
    ++other;
  }
}

}  // namespace peerscope::test
