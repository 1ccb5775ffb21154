// The experiment swarm: probes running the full mesh-pull protocol,
// background peers as reactive capacity-constrained agents, and a
// per-probe capture sink — one object per (application, run).
//
// Hybrid fidelity (DESIGN.md §2): everything a probe's sniffer could
// observe is simulated at packet granularity (trains with physical
// inter-packet gaps, TTL decay, path asymmetry); background-to-
// background traffic, which no vantage point can see, is not generated
// at all.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/topology.hpp"
#include "p2p/buffer.hpp"
#include "p2p/churn.hpp"
#include "p2p/discovery.hpp"
#include "p2p/population.hpp"
#include "p2p/profile.hpp"
#include "sim/engine.hpp"
#include "sim/impairment.hpp"
#include "sim/link.hpp"
#include "sim/train.hpp"
#include "trace/sink.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

// Never defined: SwarmConfig::progress below only names it.
namespace peerscope::obs {
struct RunProgress;
}  // namespace peerscope::obs

namespace peerscope::p2p {

struct SwarmConfig {
  SystemProfile profile;
  std::uint64_t seed = 1;
  util::SimTime duration = util::SimTime::seconds(300);
  /// Keep raw packet records in the sinks (needed for trace-file
  /// export and the offline analysis path; costs memory).
  bool keep_records = false;
  /// Per-link impairment model (bursty loss, capture reordering and
  /// duplication, transient outages) applied to every video train.
  /// When enabled it arms the swarm's failure-recovery machinery; the
  /// default reproduces the paper's lossless-enough campus captures.
  sim::ImpairmentSpec impairment;
  /// Peer churn and connection-failure injection.
  ChurnSpec churn;
  /// Pluggable discovery: backend selection, tracker outage injection,
  /// failover policy, NAT traversal, and session dynamics. Disabled by
  /// default — the legacy inline tracker path stays byte-identical.
  DiscoverySpec discovery;
  /// Cooperative cancellation: polled between simulation events (see
  /// sim::Engine::set_cancel); Swarm::run throws util::Cancelled when
  /// it trips. nullptr = uncancellable (the default fast path). The
  /// token must outlive the run.
  const util::CancelToken* cancel = nullptr;
  /// Inert: nothing reads it. perfbench/workloads.cpp still assigns
  /// it; it goes once perfbench drops that line (ROADMAP item 2).
  std::string series_key;
  /// Inert: nothing reads it. perfbench/workloads.cpp still assigns
  /// it; it goes once perfbench drops that line (ROADMAP item 2).
  obs::RunProgress* progress = nullptr;
};

class Swarm {
 public:
  Swarm(const net::AsTopology& topo, std::span<const ProbeSpec> probes,
        SwarmConfig config);
  ~Swarm();

  /// Runs the experiment to `config.duration`. Call once.
  void run();

  [[nodiscard]] const Population& population() const { return population_; }
  [[nodiscard]] const SystemProfile& profile() const {
    return config_.profile;
  }
  [[nodiscard]] util::SimTime duration() const { return config_.duration; }

  [[nodiscard]] std::size_t probe_count() const { return probes_.size(); }
  [[nodiscard]] const trace::ProbeSink& sink(std::size_t probe_index) const {
    return *sinks_[probe_index];
  }

  /// Ground-truth counters for validation and reporting.
  struct Counters {
    std::uint64_t chunks_delivered = 0;  // to probes
    std::uint64_t chunks_duplicate = 0;
    std::uint64_t chunks_uploaded = 0;   // from probes
    std::uint64_t requests_refused = 0;  // uplink backlog refusals
    std::uint64_t contacts = 0;          // discovery handshakes
    std::uint64_t timeouts = 0;
    // --- fault-injection outcomes (all zero when faults disabled) ---
    std::uint64_t contact_failures = 0;  // NAT/FW/offline handshakes lost
    std::uint64_t probe_crashes = 0;
    std::uint64_t chunks_retried = 0;    // re-requested after a timeout
    std::uint64_t partners_blacklisted = 0;
    /// Discovery-subsystem outcomes (all zero when discovery disabled).
    DiscoveryCounters discovery;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Re-join SLO outcome when a discovery backend ran; all-zero
  /// otherwise. `rejoins_missed` > 0 with a configured deadline means
  /// the run degraded (exp::run_experiment turns that into a distinct
  /// failure status).
  struct DiscoveryReport {
    std::size_t rejoins_missed = 0;
    std::vector<double> rejoin_latencies_s;
  };
  [[nodiscard]] DiscoveryReport discovery_report() const;

 private:
  struct Partner {
    PeerId id = 0;
    double belief_mbps = 1.0;
    std::uint64_t bytes_delivered = 0;
    int inflight = 0;
    /// Consecutive request timeouts; reset on any completed chunk.
    int consecutive_failures = 0;
    /// bg_lag memo: the lag drawn for `lag_epoch` (no epoch yet at
    /// uint64 max).
    std::uint64_t lag_epoch = std::numeric_limits<std::uint64_t>::max();
    util::SimTime lag{0};
    /// Capture handles (DESIGN.md §14), null until the first packet to
    /// or from this partner is captured: the partner's flow at this
    /// probe's sink, and, when the partner is a probe, this probe's
    /// flow at the partner's sink.
    trace::FlowStats* flow = nullptr;
    trace::FlowStats* peer_flow = nullptr;
    /// Keepalives sent since the last flush, and the first and last
    /// send time among them. retire_partner and the end of run() fold
    /// them into the flows (flush_keepalives).
    std::uint32_t keepalives = 0;
    util::SimTime keepalive_first{0};
    util::SimTime keepalive_last{0};
  };

  struct Requester {
    PeerId id = 0;
    double stream_share = 0.5;
    util::SimTime leaves{0};
    /// The requester's flow at this probe's sink, null until its first
    /// request is captured.
    trace::FlowStats* flow = nullptr;
  };

  /// Per-probe protocol state, laid out flat (DESIGN.md §14): the
  /// request-window maps of the first implementation (inflight, retry
  /// bookkeeping, blacklist) are small dense vectors scanned linearly —
  /// their population is bounded by the scheduling window, so a scan
  /// beats hashing and the per-event node allocations it came with.
  /// Membership in the (population-sized) known set is one bit per
  /// peer. `belief_cache` stays a hash map: its domain is the whole
  /// population but its occupancy is sparse, and it is only ever
  /// point-queried.
  struct ProbeState {
    PeerId id = 0;
    std::size_t index = 0;  // into probes_/sinks_
    std::vector<bool> known_bits;  // sized population; mirrors known_list
    std::vector<PeerId> known_list;
    std::vector<Partner> partners;
    std::unordered_map<PeerId, double> belief_cache;
    ChunkBuffer buffer{256};
    ChunkIndex next_request = 0;  // earliest chunk worth requesting
    struct Inflight {
      ChunkIndex chunk = 0;
      PeerId from = 0;
      util::SimTime deadline{0};
    };
    std::vector<Inflight> inflight;  // unique chunks, insertion order
    int active_requesters = 0;
    double discovery_credit = 0.0;
    bool bootstrapped = false;
    // --- fault-recovery state (inert unless faults are active) ---
    bool online = true;
    /// Incremented on every crash; scheduled tick chains capture the
    /// epoch at schedule time and die when it no longer matches, so a
    /// rejoin never double-ticks.
    std::uint64_t tick_epoch = 0;
    // Window-bounded: entries below the request window are GC'd every
    // tick, so linear scans stay O(window).
    std::vector<std::pair<ChunkIndex, int>> chunk_failures;
    std::vector<std::pair<ChunkIndex, util::SimTime>> retry_after;
    std::vector<std::pair<PeerId, util::SimTime>> blacklist_until;

    [[nodiscard]] bool inflight_contains(ChunkIndex chunk) const {
      for (const Inflight& f : inflight) {
        if (f.chunk == chunk) return true;
      }
      return false;
    }
    [[nodiscard]] bool blacklisted(PeerId peer) const {
      for (const auto& [banned, until] : blacklist_until) {
        if (banned == peer) return true;
      }
      return false;
    }
  };

  // --- protocol steps (each runs at engine-now) ---
  void bootstrap(ProbeState& ps);
  void tick(ProbeState& ps);                 // scheduler period
  void maintain_partners(ProbeState& ps);    // partner churn
  void run_discovery(ProbeState& ps);        // contact new peers
  void send_keepalives(ProbeState& ps);
  /// Where a keepalive from `ps` to `partner` is captured, as offsets
  /// from its send time (the probe's TX is at +0) and RX TTLs. Fixed
  /// per pair, because path delays and hops are.
  struct KeepaliveCapture {
    util::SimTime probe_rx;    // the reply, after the round trip
    util::SimTime partner_rx;  // at a probe partner's sink
    util::SimTime partner_tx;  // its reply
    std::uint8_t probe_ttl = 0;
    std::uint8_t partner_ttl = 0;
  };
  [[nodiscard]] KeepaliveCapture keepalive_capture(const ProbeState& ps,
                                                   PeerId partner) const;
  /// Folds a partner's deferred keepalives into its flows: one path
  /// pair and one counted update per direction and sink.
  void flush_keepalives(const ProbeState& ps, Partner& partner);
  /// A partner leaves the set: its belief is cached and its keepalives
  /// flushed. The caller erases it.
  void retire_partner(ProbeState& ps, Partner& partner);
  void schedule_requests(ProbeState& ps);
  void request_chunk(ProbeState& ps, Partner& partner, ChunkIndex chunk);
  void complete_chunk(ProbeState& ps, PeerId from, ChunkIndex chunk,
                      util::SimTime requested, double train_rate_mbps,
                      std::uint64_t bytes);
  void spawn_requester(ProbeState& ps);
  /// The accept half of spawn_requester (shared with flash-crowd
  /// arrivals, which inject sessions without rescheduling the process).
  void try_spawn_requester(ProbeState& ps);
  void requester_loop(ProbeState& ps, std::shared_ptr<Requester> req);

  // --- discovery subsystem (only called when a backend is active) ---
  /// One failover-aware join round; schedules the resulting contact
  /// batch after the backend's modeled latency, or a jittered retry.
  void discovery_join(ProbeState& ps);
  void discovery_join_landed(ProbeState& ps, std::span<const PeerId> peers);
  void schedule_join_retry(ProbeState& ps);
  /// Channel-zap flash crowd: every probe zaps and re-joins, and a
  /// burst of correlated requester arrivals hits the probes' uplinks.
  void flash_crowd();
  void zap_probe(ProbeState& ps);
  [[nodiscard]] double session_length_s(double mean_s, util::Rng& rng);

  // --- fault injection (only called when faults_active_) ---
  [[nodiscard]] bool peer_online(PeerId id, util::SimTime now) const;
  void on_request_failed(ProbeState& ps, ChunkIndex chunk, PeerId from);
  void crash_probe(std::size_t probe_index);
  void rejoin_probe(std::size_t probe_index);
  void schedule_probe_crash(std::size_t probe_index);
  [[nodiscard]] sim::GilbertElliott* channel_for(PeerId sender,
                                                PeerId receiver);

  // --- helpers ---
  [[nodiscard]] ChunkIndex source_newest() const;
  /// A background partner's current lag, drawn once per (peer, lag
  /// epoch) and memoised on the partner.
  [[nodiscard]] util::SimTime bg_lag(Partner& partner, util::SimTime now);
  [[nodiscard]] bool peer_has_chunk(Partner& partner, ChunkIndex chunk);
  [[nodiscard]] PeerId sample_peer(const ProbeState& ps, double as_bias);
  /// Discovery handshake; false when it was refused (offline peer,
  /// NAT/firewall failure, blocked traversal).
  bool contact(ProbeState& ps, PeerId target);
  void note_known(ProbeState& ps, PeerId id);
  [[nodiscard]] double cached_belief(const ProbeState& ps, PeerId id) const;

  const net::AsTopology& topo_;
  SwarmConfig config_;
  Population population_;
  sim::Engine engine_;
  util::Rng rng_;
  /// Separate stream for churn event scheduling so enabling churn does
  /// not shift the protocol's own draws.
  util::Rng churn_rng_;
  /// Separate stream for discovery control-plane draws (DHT lookup
  /// targets, gossip sampling, zap pruning) for the same reason.
  util::Rng discovery_rng_;
  /// True when churn or the impairment model is on; every piece of
  /// recovery machinery is gated on this so the default configuration
  /// stays bit-identical to the clean simulator.
  bool faults_active_ = false;
  /// Same contract for the discovery subsystem: false keeps every code
  /// path (and RNG draw) identical to the legacy inline tracker.
  bool discovery_active_ = false;
  /// NAT-traversal matrix armed (a subset of discovery_active_).
  bool nat_active_ = false;
  /// Gilbert–Elliott burst state per directed (sender, receiver) pair.
  std::unordered_map<std::uint64_t, sim::GilbertElliott> channels_;
  std::vector<sim::LinkCursor> up_;
  std::vector<sim::LinkCursor> down_;
  std::vector<std::unique_ptr<trace::ProbeSink>> sinks_;
  std::vector<ProbeState> probes_;
  /// Struct-of-arrays mirrors of the per-peer facts the inner loops
  /// touch (DESIGN.md §14): peer_has_chunk / peer_online test these
  /// for every candidate partner per scheduled chunk, and indexing a
  /// byte (or an int) beats dragging the full PeerInfo cache line in.
  enum PeerKind : std::uint8_t { kBackground = 0, kProbe = 1, kSource = 2 };
  std::vector<std::uint8_t> peer_kind_;
  std::vector<std::int32_t> probe_slot_;  // dense probe index, -1 = none
  std::vector<double> lag_scale_;
  /// Discovery backends + failover state machine; null unless a
  /// backend is configured. HostImpl adapts this swarm to the
  /// DiscoveryHost interface (defined in swarm.cpp).
  struct HostImpl;
  std::unique_ptr<HostImpl> discovery_host_;
  std::unique_ptr<DiscoveryService> discovery_;
  Counters counters_;
  util::SimTime chunk_interval_{0};
  /// transmit_train's metric handles, resolved when run() starts.
  sim::TrainMetrics train_metrics_;
  bool ran_ = false;
};

}  // namespace peerscope::p2p
