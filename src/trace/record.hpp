// Captured-packet record: what a vantage point's sniffer writes.
//
// Field-for-field this is the subset of a pcap entry the paper's
// methodology consumes: timestamp, endpoint addresses, IP length, and
// the TTL observed on *received* packets.
#pragma once

#include <cstdint>

#include "net/ipv4.hpp"
#include "sim/packet.hpp"
#include "util/sim_time.hpp"

namespace peerscope::trace {

/// Direction relative to the capturing probe.
enum class Direction : std::uint8_t {
  kRx,  // remote -> probe
  kTx,  // probe -> remote
};

struct PacketRecord {
  util::SimTime ts;        // capture timestamp
  net::Ipv4Addr remote;    // the non-probe endpoint
  std::int32_t bytes = 0;  // IP-layer length
  Direction dir = Direction::kRx;
  sim::PacketKind kind = sim::PacketKind::kVideo;
  /// TTL as seen at the probe. Meaningful for RX records only; TX
  /// records carry the initial TTL (the probe wrote it).
  std::uint8_t ttl = sim::kInitialTtl;
};

/// Ordering for offline analysis: by time, then remote, then
/// direction. Not a total order: a probe captures several packets of
/// one remote and direction at one stamp (say, a request and a
/// keepalive to one partner), and those tie. A writer that needs fixed
/// bytes sorts with std::stable_sort, so ties keep capture order.
[[nodiscard]] inline bool record_before(const PacketRecord& a,
                                        const PacketRecord& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.remote != b.remote) return a.remote < b.remote;
  return static_cast<int>(a.dir) < static_cast<int>(b.dir);
}

}  // namespace peerscope::trace
