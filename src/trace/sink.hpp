// Per-probe capture sink: the simulator-side "tcpdump".
//
// Always maintains an online FlowTable (O(#peers) memory, enough for
// every statistic in the paper). Optionally also stores raw
// PacketRecords, which is what gets written to trace files and fed to
// the offline analysis path — tests assert both paths agree.
#pragma once

#include <span>
#include <vector>

#include "net/ipv4.hpp"
#include "sim/packet.hpp"
#include "trace/flow.hpp"
#include "trace/record.hpp"
#include "util/sim_time.hpp"

namespace peerscope::trace {

class ProbeSink {
 public:
  ProbeSink(net::Ipv4Addr probe, bool keep_records)
      : probe_(probe), keep_records_(keep_records), flows_(probe) {}

  [[nodiscard]] net::Ipv4Addr probe() const { return probe_; }

  /// A received video burst: one RX packet per arrival.
  void video_train_rx(net::Ipv4Addr remote,
                      std::span<const util::SimTime> arrivals,
                      std::int32_t bytes_per_packet, std::uint8_t ttl) {
    capture(remote, Direction::kRx, sim::PacketKind::kVideo,
            bytes_per_packet, ttl, arrivals);
  }

  /// A transmitted video burst: one TX packet per departure.
  void video_train_tx(net::Ipv4Addr remote,
                      std::span<const util::SimTime> departures,
                      std::int32_t bytes_per_packet) {
    capture(remote, Direction::kTx, sim::PacketKind::kVideo,
            bytes_per_packet, sim::kInitialTtl, departures);
  }

  void signaling_rx(net::Ipv4Addr remote, util::SimTime ts,
                    std::int32_t bytes, std::uint8_t ttl) {
    capture(remote, Direction::kRx, sim::PacketKind::kSignaling, bytes, ttl,
            {&ts, 1});
  }

  void signaling_tx(net::Ipv4Addr remote, util::SimTime ts,
                    std::int32_t bytes) {
    capture(remote, Direction::kTx, sim::PacketKind::kSignaling, bytes,
            sim::kInitialTtl, {&ts, 1});
  }

  [[nodiscard]] const FlowTable& flows() const { return flows_; }
  [[nodiscard]] bool keeps_records() const { return keep_records_; }
  [[nodiscard]] const std::vector<PacketRecord>& records() const {
    return records_;
  }

  /// Sorts stored records into capture order (no-op effect on flows).
  void sort_records();

 private:
  /// One FlowTable update per run; with keep_records, one record per
  /// packet in capture order.
  void capture(net::Ipv4Addr remote, Direction dir, sim::PacketKind kind,
               std::int32_t bytes, std::uint8_t ttl,
               std::span<const util::SimTime> ts) {
    flows_.add_run(remote, dir, kind, bytes, ttl, ts);
    if (!keep_records_) return;
    for (const auto t : ts) {
      records_.push_back({t, remote, bytes, dir, kind, ttl});
    }
  }

  net::Ipv4Addr probe_;
  bool keep_records_;
  FlowTable flows_;
  std::vector<PacketRecord> records_;
};

}  // namespace peerscope::trace
