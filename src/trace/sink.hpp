// Per-probe capture sink: the simulator-side "tcpdump".
//
// Always maintains an online FlowTable (O(#peers) memory, enough for
// every statistic in the paper). Optionally also stores raw
// PacketRecords, which is what gets written to trace files and fed to
// the offline analysis path — tests assert both paths agree.
//
// Every capture call takes a flow handle from this sink's flow(remote)
// (FlowTable::flow): the caller resolves it where the first packet to
// that remote is captured, and may keep it for the sink's lifetime.
// A handle from another sink would update that sink's flow but this
// sink's totals.
//
// Signaling can also be deferred: record_signaling() stores a packet's
// record at send time (a no-op without keep_records) and
// count_signaling() later folds the packets into the flow as one
// counted update (FlowTable::add_counted, with its one-TTL
// precondition). Nothing reads a sink while the swarm runs, so the
// table is exact once every deferred count is in.
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

  /// Handle to the flow with `remote`, created on first use.
  [[nodiscard]] FlowStats& flow(net::Ipv4Addr remote) {
    return flows_.flow(remote);
  }

  /// A received video burst: one RX packet per arrival.
  void video_train_rx(FlowStats& flow, std::span<const util::SimTime> arrivals,
                      std::int32_t bytes_per_packet, std::uint8_t ttl) {
    capture(flow, Direction::kRx, sim::PacketKind::kVideo, bytes_per_packet,
            ttl, arrivals);
  }

  /// A transmitted video burst: one TX packet per departure.
  void video_train_tx(FlowStats& flow,
                      std::span<const util::SimTime> departures,
                      std::int32_t bytes_per_packet) {
    capture(flow, Direction::kTx, sim::PacketKind::kVideo, bytes_per_packet,
            sim::kInitialTtl, departures);
  }

  void signaling_rx(FlowStats& flow, util::SimTime ts, std::int32_t bytes,
                    std::uint8_t ttl) {
    capture(flow, Direction::kRx, sim::PacketKind::kSignaling, bytes, ttl,
            {&ts, 1});
  }

  void signaling_tx(FlowStats& flow, util::SimTime ts, std::int32_t bytes) {
    capture(flow, Direction::kTx, sim::PacketKind::kSignaling, bytes,
            sim::kInitialTtl, {&ts, 1});
  }

  /// The record half of a deferred signaling packet: stored now, in
  /// capture order, when keeping records; the flow is not touched.
  void record_signaling(const FlowStats& flow, Direction dir,
                        util::SimTime ts, std::int32_t bytes,
                        std::uint8_t ttl) {
    if (!keep_records_) return;
    records_.push_back(
        {ts, flow.remote, bytes, dir, sim::PacketKind::kSignaling, ttl});
  }

  /// The flow half of `n` deferred signaling packets stamped within
  /// [lo, hi]: one counted update, no records.
  void count_signaling(FlowStats& flow, Direction dir, std::int32_t bytes,
                       std::uint8_t ttl, std::uint64_t n, util::SimTime lo,
                       util::SimTime hi) {
    flows_.add_counted(flow, dir, bytes, ttl, n, lo, hi);
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
  void capture(FlowStats& flow, Direction dir, sim::PacketKind kind,
               std::int32_t bytes, std::uint8_t ttl,
               std::span<const util::SimTime> ts) {
    flows_.add_run(flow, dir, kind, bytes, ttl, ts);
    if (!keep_records_) return;
    for (const auto t : ts) {
      records_.push_back({t, flow.remote, bytes, dir, kind, ttl});
    }
  }

  net::Ipv4Addr probe_;
  bool keep_records_;
  FlowTable flows_;
  std::vector<PacketRecord> records_;
};

}  // namespace peerscope::trace
