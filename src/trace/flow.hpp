// Per-peer-pair flow aggregation.
//
// FlowStats is the unit of everything downstream: the contributor
// heuristic, the bandwidth classifier (min inter-packet gap over
// received video packets), the hop estimator (RX TTL), and all
// byte/peer preference counters.
//
// A FlowTable can be built two ways, with identical results:
//   - online, by feeding packets as the simulation emits them, one
//     run per video train (memory stays O(#peers); the swarm's
//     ProbeSinks);
//   - offline, from a stored/loaded record vector sorted by time
//     (the faithful "analyse the pcap" path; exp::load_capture).
//
// Online updates go through a handle: flow(remote) returns the
// FlowStats for `remote`, created on first use, and it stays valid for
// the table's lifetime (flows_ is node-based, so a rehash moves no
// node). A caller that captures to one remote many times keeps the
// handle and skips the hash lookup. A counted update (add_counted)
// folds n signaling packets into a flow at once; it is exact only
// while every RX packet on that flow carries one TTL, the model's
// fixed path per ordered (remote, probe) pair (see add_counted).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/ipv4.hpp"
#include "trace/record.hpp"
#include "util/sim_time.hpp"

namespace peerscope::trace {

/// Quantile-style robust minimum: the smallest IPG after discarding the
/// `discard` smallest samples (capture duplication and reordering
/// fabricate a handful of near-zero gaps per flow; the discarded head
/// absorbs them). `smallest` holds the k smallest observed gaps in
/// ascending order with int64-max padding; `samples` is the total gap
/// count. Returns int64 max when no gap survives.
[[nodiscard]] std::int64_t robust_min_ipg(
    std::span<const std::int64_t> smallest, std::uint64_t samples,
    int discard);

struct FlowStats {
  std::uint64_t rx_pkts = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_pkts = 0;
  std::uint64_t tx_bytes = 0;

  std::uint64_t rx_video_pkts = 0;
  std::uint64_t rx_video_bytes = 0;
  std::uint64_t tx_video_pkts = 0;
  std::uint64_t tx_video_bytes = 0;

  /// Minimum gap between consecutive received video packets, the
  /// packet-pair bottleneck signal. int64 max when < 2 video packets.
  std::int64_t min_rx_video_ipg_ns = std::numeric_limits<std::int64_t>::max();

  /// The k smallest RX video IPGs in ascending order (int64-max
  /// padded), for the duplication/reordering-robust estimator.
  static constexpr int kIpgTrack = 5;
  std::array<std::int64_t, kIpgTrack> smallest_rx_ipgs{
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::max()};
  /// Total RX video IPG samples observed (rx_video_pkts - 1 per
  /// contiguous run).
  std::uint64_t rx_ipg_samples = 0;
  /// Left edge of the next RX video IPG: the last received video
  /// packet's timestamp. Valid once rx_video_pkts > 0.
  util::SimTime last_rx_video_ts = util::SimTime::zero();
  /// Robust min IPG: see robust_min_ipg(). With discard <= 0 this is
  /// exactly min_rx_video_ipg_ns.
  [[nodiscard]] std::int64_t min_ipg_after_discard(int discard) const {
    if (discard <= 0) return min_rx_video_ipg_ns;
    return robust_min_ipg(smallest_rx_ipgs, rx_ipg_samples, discard);
  }

  // `remote` sits with the TTL bytes so the layout has no padding hole.
  net::Ipv4Addr remote;

  /// TTL observed on received packets (stable per path in the model;
  /// the last observation is kept).
  std::uint8_t rx_ttl = 0;
  bool saw_rx = false;

  /// Misra–Gries majority tracking over RX TTL values: under
  /// corruption, a handful of flipped TTL bytes must not move the hop
  /// estimate the way last-seen does. On a clean trace the mode equals
  /// rx_ttl.
  std::array<std::uint8_t, 3> ttl_candidates{};
  std::array<std::int32_t, 3> ttl_counts{};
  [[nodiscard]] std::uint8_t rx_ttl_mode() const;

  util::SimTime first_ts = util::SimTime::max();
  util::SimTime last_ts = util::SimTime::zero();

  [[nodiscard]] bool has_min_ipg() const {
    return min_rx_video_ipg_ns !=
           std::numeric_limits<std::int64_t>::max();
  }
};

/// All flows observed at one probe, keyed by remote address.
class FlowTable {
 public:
  explicit FlowTable(net::Ipv4Addr probe) : probe_(probe) {}

  [[nodiscard]] net::Ipv4Addr probe() const { return probe_; }

  /// Handle to the flow with `remote`, created empty on first use at
  /// the place in flows() order where its first packet would put it.
  /// The reference stays valid for the table's lifetime. An empty flow
  /// is a flow: take the handle where the first packet is captured.
  [[nodiscard]] FlowStats& flow(net::Ipv4Addr remote);

  /// Online update of `flow` (a handle from this table) with a run of
  /// packets that share one direction, kind, size and TTL (a video
  /// train, or one packet), stamped `ts` in capture order. Leaves the
  /// table exactly as one add() per packet would. Packets from the same
  /// remote must arrive in non-decreasing timestamp order for the IPG
  /// tracking to match the offline path (the simulator guarantees this
  /// per remote unless capture reordering is on).
  void add_run(FlowStats& flow, Direction dir, sim::PacketKind kind,
               std::int32_t bytes_per_packet, std::uint8_t ttl,
               std::span<const util::SimTime> ts);

  /// The same by address; a run of zero packets adds no flow.
  void add_run(net::Ipv4Addr remote, Direction dir, sim::PacketKind kind,
               std::int32_t bytes_per_packet, std::uint8_t ttl,
               std::span<const util::SimTime> ts) {
    if (ts.empty()) return;
    add_run(flow(remote), dir, kind, bytes_per_packet, ttl, ts);
  }

  /// Online update with one record: a run of one.
  void add(const PacketRecord& record) {
    add_run(record.remote, record.dir, record.kind, record.bytes, record.ttl,
            {&record.ts, 1});
  }

  /// Counted update of `flow` (a handle from this table) with `n`
  /// signaling packets of one direction, size and TTL whose earliest
  /// stamp is `lo` and latest `hi`. Equal to the `n` single add()s in
  /// any order, given the precondition: every RX packet the flow ever
  /// sees carries the same TTL, so the Misra–Gries sketch and rx_ttl
  /// do not depend on where in the sequence these packets fall.
  /// Signaling moves no IPG state. `n == 0` changes nothing.
  void add_counted(FlowStats& flow, Direction dir,
                   std::int32_t bytes_per_packet, std::uint8_t ttl,
                   std::uint64_t n, util::SimTime lo, util::SimTime hi);

  /// Offline build: feeds `records` in record_before order. Input
  /// already in that order, as every PSBT file is, is walked in place;
  /// other input is copied and sorted first. The two paths can differ
  /// only in the order of record_before ties (same stamp, remote and
  /// direction), which std::sort leaves unspecified anyway, and a tie
  /// lands the same either way: counters add, stamps are equal, tied
  /// video packets close the same gaps, signaling moves no gap state,
  /// and every RX packet of a flow carries one TTL. Consecutive
  /// records of one remote share one flow() lookup.
  [[nodiscard]] static FlowTable from_records(
      net::Ipv4Addr probe, std::span<const PacketRecord> records);

  [[nodiscard]] const FlowStats* find(net::Ipv4Addr remote) const;
  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }

  [[nodiscard]] const std::unordered_map<net::Ipv4Addr, FlowStats>& flows()
      const {
    return flows_;
  }

  /// Totals over all flows (Table II inputs).
  [[nodiscard]] std::uint64_t total_rx_bytes() const { return total_rx_bytes_; }
  [[nodiscard]] std::uint64_t total_tx_bytes() const { return total_tx_bytes_; }
  [[nodiscard]] std::uint64_t total_rx_pkts() const { return total_rx_pkts_; }
  [[nodiscard]] std::uint64_t total_tx_pkts() const { return total_tx_pkts_; }

 private:
  /// The counter half of every update: packet and byte counters,
  /// totals, first/last stamps, and the RX TTL state.
  void count(FlowStats& f, Direction dir, bool video,
             std::int32_t bytes_per_packet, std::uint8_t ttl,
             std::uint64_t n, util::SimTime lo, util::SimTime hi);

  net::Ipv4Addr probe_;
  std::unordered_map<net::Ipv4Addr, FlowStats> flows_;
  std::uint64_t total_rx_bytes_ = 0;
  std::uint64_t total_tx_bytes_ = 0;
  std::uint64_t total_rx_pkts_ = 0;
  std::uint64_t total_tx_pkts_ = 0;
};

}  // namespace peerscope::trace
