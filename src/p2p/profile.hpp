// Application profiles: the behavioural knobs that stand in for the
// three proprietary P2P-TV clients.
//
// The paper treats PPLive, SopCast and TVAnts as black boxes and infers
// their behaviour from traffic. Here the behaviours are *planted*
// (ground truth), so the black-box pipeline can be validated: it must
// recover exactly the biases encoded below. Factory functions encode
// the per-system knobs the paper's findings imply; every number is a
// tunable, not a constant of nature — the ext.ablation.* claims
// (exp/extensions.hpp) sweep them.
#pragma once

#include <cstdint>
#include <string>

#include "util/sim_time.hpp"

namespace peerscope::p2p {

/// Video stream parameters. All three systems streamed the same
/// CCTV-1 channel at a nominal 384 kb/s (paper §II).
struct StreamModel {
  std::int64_t stream_bps = 384'000;
  std::int32_t chunk_bytes = 16'000;   // ~1/3 s of video per chunk
  std::int32_t packet_bytes = 1'250;   // paper's reference packet size

  [[nodiscard]] util::SimTime chunk_interval() const {
    return util::transmission_time(chunk_bytes, stream_bps);
  }
  [[nodiscard]] int packets_per_chunk() const {
    return (chunk_bytes + packet_bytes - 1) / packet_bytes;
  }
};

/// How a peer scores a candidate supplier when choosing whom to
/// download a chunk from, and whom to admit as a partner.
/// score = random + bandwidth * belief/20Mbps + same_as + same_cc.
struct SelectionWeights {
  double random = 0.05;     // score floor (every candidate > 0)
  double bandwidth = 1.0;   // weight on the throughput belief
  double same_as = 0.0;     // additive bonus for same Autonomous System
  double same_cc = 0.0;     // additive bonus for same country
  double low_rtt = 0.0;     // proximity bonus (next-gen designs only)
  /// Probability that a chunk request ignores scores entirely and
  /// probes a uniformly-random holder — the slow-start trial every
  /// real client gives new partners. Keeps the contributor set churning
  /// without moving much volume.
  double explore = 0.07;
};

/// Control-plane traffic model.
struct SignalingModel {
  double contact_rate_per_s = 2.0;   // new peers contacted per second
  /// Fraction of discovery contacts found through peer exchange
  /// (asking a partner for *its* partners) rather than the tracker.
  /// PEX makes stable, well-connected peers — the probe clouds above
  /// all — spread preferentially through the swarm.
  double pex_fraction = 0.4;
  int handshake_packets = 2;         // packets each way on first contact
  double keepalive_per_s = 1.0;      // buffer-map rate per active partner
  std::int32_t keepalive_bytes = 200;
  std::int32_t request_bytes = 120;
  std::int32_t handshake_bytes = 120;
};

/// Chunk scheduler parameters.
struct ScheduleModel {
  util::SimTime period = util::SimTime::millis(300);
  int window_chunks = 12;       // how far back from the source edge to pull
  int safety_chunks = 2;        // freshest chunks not yet requested
  /// Chunks younger than this (in chunk slots behind the edge) are
  /// requested opportunistically with probability `eager_prob` per
  /// tick; older chunks are requested urgently. Early requests hit the
  /// thin set of near-edge holders (probe cascade); late requests see
  /// many holders and let the score biases act.
  int due_chunks = 6;
  double eager_prob = 0.35;
  int max_inflight = 8;
  util::SimTime request_timeout = util::SimTime::seconds(3);
  int partner_target = 30;      // active download partners
  util::SimTime maintenance_period = util::SimTime::seconds(4);
  double drop_fraction = 0.20;  // worst partners dropped per maintenance
  /// Additionally drop this many random partners per round: the remote
  /// side churns too, good partners included.
  int random_drops = 1;
};

/// Upload side: background-peer demand for the probe's upload capacity.
struct UploadModel {
  double requester_arrival_per_s = 0.2;  // new downloader arrivals per probe
  double requester_lifetime_s = 60.0;    // mean attachment time
  int max_requesters = 16;               // concurrent downloader cap
  /// Requests are refused while uplink backlog exceeds this.
  util::SimTime backlog_limit = util::SimTime::millis(400);
  /// Desired stream share pulled by a high-bandwidth requester,
  /// uniform in [hi_lo, hi_hi]; DSL requesters pull [lo_lo, lo_hi].
  /// Well-connected downloaders can pull above 1.0 (re-distribution).
  double share_hi_lo = 0.6, share_hi_hi = 1.6;
  double share_lo_lo = 0.1, share_lo_hi = 0.4;
};

/// Swarm composition (background population).
struct PopulationSpec {
  std::size_t background_peers = 2000;
  // Region mix (fractions of background peers; must sum to ~1).
  double cn_fraction = 0.72;
  double eu_fraction = 0.14;
  double row_fraction = 0.14;
  // High-bandwidth (>10 Mb/s uplink) share inside each region group.
  // P2P-TV's 2008 audience skewed heavily toward campus/fiber users —
  // the paper finds 83-86% of *contributors* are high-bandwidth.
  double cn_highbw = 0.50;
  double eu_highbw = 0.50;
  double row_highbw = 0.45;
  /// Fraction of European background peers homed in the *institution*
  /// ASes of Table I (students on campus nets — the non-NAPA same-AS
  /// peer pool the AS preference statistics need).
  double inst_as_fraction = 0.25;
  // Chunk availability lag of background peers relative to the source:
  // lag = floor + lognormal(mu, sigma) * class_scale. The floor keeps
  // probes (which pull within `safety_chunks` of the live edge) ahead
  // of the bulk of the swarm, so fresh chunks cascade probe-to-probe —
  // the NAPA-cloud effect of Table III. High-bandwidth peers receive
  // the stream earlier than DSL peers (their own download is faster).
  double lag_floor_s = 0.6;
  double lag_mu = 1.25;     // exp(1.25) ~ 3.5 s median scale
  double lag_sigma = 0.8;   // heavy tail: a few near-edge peers, most far
  double highbw_lag_scale = 0.6;
  double lowbw_lag_scale = 1.3;
  /// Institution-AS (campus) viewers sit on NREN-grade paths and get
  /// the stream earlier still — they compete with the probe clouds at
  /// the live edge.
  double campus_lag_scale = 0.6;
  /// Background peers' playback offsets drift as their own suppliers
  /// change: each peer's lag is redrawn on this period (with a per-peer
  /// phase), so *which* peers sit near the live edge rotates over the
  /// experiment — that churn is what accumulates distinct contributors
  /// over an hour-long capture.
  double lag_epoch_s = 25.0;
  /// Added to every background peer's router depth: shifts the whole
  /// hop-count distribution. The three systems attracted measurably
  /// different audiences (the paper's HOP medians span 18-20).
  int depth_shift = 0;
};

/// One P2P-TV application, fully specified.
struct SystemProfile {
  std::string name;
  StreamModel stream;
  SelectionWeights select;
  SignalingModel signaling;
  ScheduleModel sched;
  UploadModel upload;
  PopulationSpec population;
  /// Probability that a discovery contact is drawn from the probe's
  /// own AS when such peers exist (gossip locality; TVAnts-style).
  double discovery_as_bias = 0.0;
  /// Whether the client discovers same-subnet peers immediately
  /// (PPLive's documented local peer discovery; the source of its
  /// outsized same-LAN download share in Table IV's NET row).
  bool lan_discovery = false;
  /// Probability that a discovery contact targets one of the swarm's
  /// *stable* long-session peers (the testbed probes are the extreme
  /// case: hour-long sessions while the audience churns in minutes).
  /// Trackers and gossip caches overweight stable peers — see the
  /// "stable peers" line of work the paper cites ([8]).
  double discovery_stable_bias = 0.0;

  /// PPLive: huge contacted-peer population, aggressive upload usage,
  /// local (same-subnet) peer discovery; its AS byte-bias is emergent
  /// (bandwidth-following on a campus-rich same-AS supplier pool), not
  /// an explicit rule — see profile.cpp and DESIGN.md §7.
  [[nodiscard]] static SystemProfile pplive();
  /// SopCast: mid-size swarm, completely location-blind selection.
  [[nodiscard]] static SystemProfile sopcast();
  /// TVAnts: small swarm, AS-aware discovery *and* scheduling.
  [[nodiscard]] static SystemProfile tvants();
  /// PPLive tuned to a popular channel: denser European presence and
  /// stronger locality, used by the Figure 2 discussion.
  [[nodiscard]] static SystemProfile pplive_popular();
  /// The paper's concluding recommendation, made concrete: a
  /// next-generation client that adds explicit AS locality and RTT
  /// awareness on top of the bandwidth preference ("better localizing
  /// the traffic ... seeking shorter paths, exploiting topology
  /// knowledge"). Used by the examples/nextgen study.
  [[nodiscard]] static SystemProfile napawine_prototype();
};

}  // namespace peerscope::p2p
