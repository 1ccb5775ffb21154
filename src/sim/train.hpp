// Packet-train transmission timing.
//
// A video chunk is sent as a burst of back-to-back packets. This module
// computes, without scheduling per-packet events, the receiver-side
// arrival timestamp of every packet in the burst: sender uplink
// serialisation -> path propagation (+ small jitter) -> receiver
// downlink serialisation. The resulting inter-packet gaps carry the
// path-bottleneck signature the paper's packet-pair classifier
// (min IPG < 1 ms <=> > 10 Mb/s) measures.
#pragma once

#include <cstdint>
#include <vector>

#include "net/access.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/impairment.hpp"
#include "sim/link.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace peerscope::sim {

struct TrainSpec {
  util::SimTime start;            // earliest sender release time
  int packet_count = 1;
  std::int32_t packet_bytes = 0;
  /// Peak of the per-packet forward jitter (uniform in [0, max)).
  util::SimTime jitter_max = util::SimTime::micros(30);
  /// Path fault injection: bursty loss, capture reordering and
  /// duplication, transient outages. Lost packets consume uplink
  /// capacity and appear in `departures` but never arrive (no receiver
  /// record — exactly what a vantage-point sniffer would miss). The
  /// default spec is fully disabled and reproduces the clean path
  /// bit-for-bit.
  ImpairmentSpec impairment;
  /// Identifies the receiver link for the deterministic outage
  /// schedule (callers key it on the receiver host).
  std::uint64_t link_key = 0;
};

struct TrainResult {
  /// Receiver-side arrival time of each packet, non-decreasing.
  std::vector<util::SimTime> arrivals;
  /// Sender-side departure time of each packet (uplink serialisation
  /// finished) — what a sniffer at the sender timestamps for TX.
  std::vector<util::SimTime> departures;
  /// When the sender uplink finished serialising the last packet.
  util::SimTime sender_done{0};
  /// When the last packet was fully received (== arrivals.back()).
  [[nodiscard]] util::SimTime completed() const {
    return arrivals.empty() ? util::SimTime::zero() : arrivals.back();
  }
};

/// The metric handles transmit_train publishes to. Resolving takes the
/// registry mutex once per handle, so a swarm resolves them once per
/// run; a default-constructed set is null and records nothing.
struct TrainMetrics {
  obs::Counter trains_expanded;
  obs::Counter packets_generated;
  obs::Counter packets_lost;
  obs::Counter packets_dropped_outage;
  obs::Counter packets_reordered;
  obs::Counter packets_duplicated;
  /// Wall time of the expansion alone, publishing excluded.
  obs::Histogram expand_ns;

  /// Handles on the installed registry; null when none is installed.
  [[nodiscard]] static TrainMetrics resolve();
  explicit operator bool() const { return static_cast<bool>(expand_ns); }
};

/// Simulates one burst from `sender` to `receiver` over `path`,
/// advancing both link cursors. Deterministic given the RNG state.
/// `channel` carries Gilbert–Elliott burst state across trains on the
/// same directed pair; pass nullptr for a memoryless channel (always
/// correct when impairment.loss_burst <= 1). Null `metrics` record
/// nothing.
[[nodiscard]] TrainResult transmit_train(const TrainSpec& spec,
                                         const net::AccessLink& sender,
                                         LinkCursor& sender_up,
                                         const net::AccessLink& receiver,
                                         LinkCursor& receiver_down,
                                         const net::PathInfo& path,
                                         util::Rng& rng,
                                         GilbertElliott* channel = nullptr,
                                         const TrainMetrics& metrics = {});

}  // namespace peerscope::sim
