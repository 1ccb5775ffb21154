#include "p2p/swarm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "p2p/selection.hpp"
#include "sim/packet.hpp"
#include "sim/train.hpp"

namespace peerscope::p2p {

using util::SimTime;

/// Adapts the swarm to the DiscoveryHost interface the backends
/// consume: population facts, liveness, path delays, and the legacy
/// tracker draw.
struct Swarm::HostImpl final : DiscoveryHost {
  explicit HostImpl(Swarm& owner) : swarm(owner) {}

  [[nodiscard]] const Population& population() const override {
    return swarm.population_;
  }
  [[nodiscard]] bool peer_reachable(PeerId id,
                                    util::SimTime now) const override {
    return swarm.peer_online(id, now);
  }
  [[nodiscard]] util::SimTime round_trip(PeerId a, PeerId b) const override {
    const auto& ea = swarm.population_.peer(a).ep;
    const auto& eb = swarm.population_.peer(b).ep;
    return swarm.topo_.path(ea, eb).one_way_delay +
           swarm.topo_.path(eb, ea).one_way_delay;
  }
  [[nodiscard]] PeerId tracker_sample(PeerId self) override {
    const ProbeState& ps =
        swarm.probes_[static_cast<std::size_t>(swarm.probe_slot_[self])];
    return swarm.sample_peer(ps, swarm.config_.profile.discovery_as_bias);
  }
  [[nodiscard]] std::span<const PeerId> known_peers(
      PeerId self) const override {
    return swarm.probes_[static_cast<std::size_t>(swarm.probe_slot_[self])]
        .known_list;
  }

  Swarm& swarm;
};

Swarm::Swarm(const net::AsTopology& topo, std::span<const ProbeSpec> probes,
             SwarmConfig config)
    : topo_(topo),
      config_(std::move(config)),
      population_(Population::build(topo, config_.profile.population, probes,
                                    config_.seed)),
      rng_(util::Rng{config_.seed}.fork(0xa11ce)),
      churn_rng_(util::Rng{config_.seed}.fork(0xc4521)),
      discovery_rng_(util::Rng{config_.seed}.fork(0xd15c0)),
      faults_active_(config_.churn.enabled() || config_.impairment.enabled()),
      discovery_active_(config_.discovery.enabled()),
      nat_active_(config_.discovery.nat.enabled),
      chunk_interval_(config_.profile.stream.chunk_interval()) {
  up_.resize(population_.size());
  down_.resize(population_.size());
  // SoA mirrors of the hot per-peer facts (one pass over the
  // population; see the member comments in swarm.hpp).
  peer_kind_.resize(population_.size(), kBackground);
  probe_slot_.resize(population_.size(), -1);
  lag_scale_.reserve(population_.size());
  for (const PeerInfo& peer : population_.peers()) {
    if (peer.is_probe) peer_kind_[peer.id] = kProbe;
    if (peer.is_source) peer_kind_[peer.id] = kSource;
    probe_slot_[peer.id] = peer.probe_index;
    lag_scale_.push_back(peer.lag_scale);
  }
  sinks_.reserve(population_.probe_ids().size());
  probes_.reserve(population_.probe_ids().size());
  for (const PeerId id : population_.probe_ids()) {
    const std::size_t index = probes_.size();
    // peerscope-lint: allow(engine-hot-path)
    sinks_.push_back(std::make_unique<trace::ProbeSink>(
        population_.peer(id).ep.addr, config_.keep_records));
    ProbeState ps;
    ps.id = id;
    ps.index = index;
    ps.known_bits.assign(population_.size(), false);
    probes_.push_back(std::move(ps));
  }
  if (config_.discovery.backend_active()) {
    // peerscope-lint: allow(engine-hot-path)
    discovery_host_ = std::make_unique<HostImpl>(*this);
    // peerscope-lint: allow(engine-hot-path)
    discovery_ = std::make_unique<DiscoveryService>(
        config_.discovery, *discovery_host_, config_.seed);
  }
}

Swarm::~Swarm() = default;

ChunkIndex Swarm::source_newest() const {
  return engine_.now() / chunk_interval_ - 1;
}

SimTime Swarm::bg_lag(Partner& partner, util::SimTime now) {
  const auto& spec = config_.profile.population;
  const PeerId id = partner.id;
  // Per-peer phase so epoch boundaries are not synchronised.
  util::SplitMix64 phase_mix{config_.seed ^ (0x1a9f37ULL + id)};
  const double phase = static_cast<double>(phase_mix.next() >> 11) *
                       0x1.0p-53 * spec.lag_epoch_s;
  const auto epoch = static_cast<std::uint64_t>(
      (now.seconds() + phase) / spec.lag_epoch_s);
  if (epoch == partner.lag_epoch) return partner.lag;

  // Deterministic lognormal draw keyed on (seed, peer, epoch).
  util::SplitMix64 mix{config_.seed ^ (static_cast<std::uint64_t>(id)
                                       << 32) ^ epoch};
  double u1 = static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
  if (u1 < 1e-12) u1 = 1e-12;
  const double u2 = static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
  const double normal = std::sqrt(-2.0 * std::log(u1)) *
                        std::cos(2.0 * 3.14159265358979323846 * u2);
  const double sample = std::exp(spec.lag_mu + spec.lag_sigma * normal);
  partner.lag_epoch = epoch;
  partner.lag =
      SimTime::from_seconds(spec.lag_floor_s + sample * lag_scale_[id]);
  return partner.lag;
}

bool Swarm::peer_online(PeerId id, util::SimTime now) const {
  const std::uint8_t kind = peer_kind_[id];
  if (kind == kSource) return true;
  if (kind == kProbe) {
    return probes_[static_cast<std::size_t>(probe_slot_[id])].online;
  }
  if (!config_.churn.bg_churn()) return true;
  // Deterministic duty cycle with a per-peer hash phase: flapping never
  // consumes RNG draws, so the audience schedule is a pure function of
  // (seed, peer, time).
  const double cycle =
      config_.churn.bg_session_s + config_.churn.bg_downtime_s;
  util::SplitMix64 mix{config_.seed ^ (0xf1a90ULL + id)};
  const double phase =
      static_cast<double>(mix.next() >> 11) * 0x1.0p-53 * cycle;
  const double pos = std::fmod(now.seconds() + phase, cycle);
  return pos < config_.churn.bg_session_s;
}

sim::GilbertElliott* Swarm::channel_for(PeerId sender, PeerId receiver) {
  if (!(config_.impairment.has_loss() &&
        config_.impairment.loss_burst > 1.0)) {
    return nullptr;  // memoryless loss needs no per-pair state
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(sender) << 32) | receiver;
  return &channels_[key];
}

void Swarm::on_request_failed(ProbeState& ps, ChunkIndex chunk, PeerId from) {
  const SimTime now = engine_.now();
  for (auto it = ps.partners.begin(); it != ps.partners.end(); ++it) {
    if (it->id != from) continue;
    if (it->inflight > 0) --it->inflight;
    ++it->consecutive_failures;
    if (config_.churn.blacklist_after > 0 &&
        it->consecutive_failures >= config_.churn.blacklist_after) {
      // Repeated timeouts: the peer is gone or unreachable. Drop it and
      // refuse to re-admit it for a while.
      const SimTime until = now + config_.churn.blacklist_duration;
      bool found = false;
      for (auto& [banned, t] : ps.blacklist_until) {
        if (banned == from) {
          t = until;
          found = true;
          break;
        }
      }
      if (!found) ps.blacklist_until.emplace_back(from, until);
      retire_partner(ps, *it);
      ps.partners.erase(it);
      ++counters_.partners_blacklisted;
    }
    break;
  }
  // Exponential backoff before this chunk is retried: repeated failures
  // on the same chunk usually mean the same root cause.
  int* failures = nullptr;
  for (auto& [c, count] : ps.chunk_failures) {
    if (c == chunk) {
      failures = &count;
      break;
    }
  }
  if (failures == nullptr) {
    failures = &ps.chunk_failures.emplace_back(chunk, 0).second;
  }
  ++*failures;
  std::int64_t backoff_ns = config_.churn.retry_backoff.ns();
  for (int i = 1; i < *failures &&
                  backoff_ns < config_.churn.retry_backoff_max.ns();
       ++i) {
    backoff_ns *= 2;
  }
  backoff_ns = std::min(backoff_ns, config_.churn.retry_backoff_max.ns());
  const SimTime retry_at = now + SimTime::nanos(backoff_ns);
  bool retry_found = false;
  for (auto& [c, t] : ps.retry_after) {
    if (c == chunk) {
      t = retry_at;
      retry_found = true;
      break;
    }
  }
  if (!retry_found) ps.retry_after.emplace_back(chunk, retry_at);
  ++counters_.chunks_retried;
}

double Swarm::session_length_s(double mean_s, util::Rng& rng) {
  if (discovery_active_ && config_.discovery.heavy_tail()) {
    // Mean-preserving Pareto (xm = mean * (a-1)/a keeps E[X] = mean):
    // the heavy tail the session-level trace studies report, without
    // shifting the aggregate churn rate. Same draw count as the
    // exponential, so enabling the tail never slides other streams.
    const double a = config_.discovery.session_tail_alpha;
    return rng.pareto(mean_s * (a - 1.0) / a, a);
  }
  return rng.exponential(mean_s);
}

void Swarm::schedule_probe_crash(std::size_t probe_index) {
  const SimTime at =
      engine_.now() + SimTime::from_seconds(session_length_s(
                          config_.churn.probe_session_s, churn_rng_));
  engine_.schedule_at(at,
                      [this, probe_index] { crash_probe(probe_index); });
}

void Swarm::crash_probe(std::size_t probe_index) {
  if (engine_.now() >= config_.duration) return;
  ProbeState& ps = probes_[probe_index];
  if (ps.online) {
    ps.online = false;
    ++counters_.probe_crashes;
    ++ps.tick_epoch;  // kills the scheduled tick chain
    for (Partner& partner : ps.partners) retire_partner(ps, partner);
    ps.partners.clear();
    ps.inflight.clear();
    ps.chunk_failures.clear();
    ps.retry_after.clear();
  }
  const SimTime back =
      engine_.now() + SimTime::from_seconds(churn_rng_.exponential(
                          config_.churn.probe_downtime_s));
  engine_.schedule_at(back,
                      [this, probe_index] { rejoin_probe(probe_index); });
}

void Swarm::rejoin_probe(std::size_t probe_index) {
  if (engine_.now() >= config_.duration) return;
  ProbeState& ps = probes_[probe_index];
  ps.online = true;
  ps.bootstrapped = false;  // restart from tracker, as a fresh client
  // Re-join latency is measured from the instant the client is back
  // online and searching, across whatever backends it takes.
  if (discovery_) discovery_->begin_join(ps.id, engine_.now());
  const std::uint64_t epoch = ps.tick_epoch;
  engine_.schedule_after(SimTime::millis(50), [this, probe_index, epoch] {
    if (probes_[probe_index].tick_epoch == epoch) {
      tick(probes_[probe_index]);
    }
  });
  schedule_probe_crash(probe_index);
}

bool Swarm::peer_has_chunk(Partner& partner, ChunkIndex chunk) {
  if (chunk < 0) return false;
  const PeerId id = partner.id;
  const std::uint8_t kind = peer_kind_[id];
  if (kind == kSource) return chunk <= source_newest();
  if (kind == kProbe) {
    return probes_[static_cast<std::size_t>(probe_slot_[id])].buffer.has(
        chunk);
  }
  // Background peer: the chunk reached it its current lag after the
  // source finished emitting it.
  const SimTime now = engine_.now();
  const SimTime available =
      chunk_interval_ * (chunk + 1) + bg_lag(partner, now);
  return now >= available;
}

double Swarm::cached_belief(const ProbeState& ps, PeerId id) const {
  if (const auto it = ps.belief_cache.find(id); it != ps.belief_cache.end()) {
    return it->second;
  }
  return 1.0;  // neutral prior, DSL-ish
}

void Swarm::note_known(ProbeState& ps, PeerId id) {
  if (id == ps.id) return;
  if (!ps.known_bits[id]) {
    ps.known_bits[id] = true;
    ps.known_list.push_back(id);
  }
}

PeerId Swarm::sample_peer(const ProbeState& ps, double as_bias) {
  const PeerInfo& self = population_.peer(ps.id);
  // Stable-peer overweighting: long-session peers accumulate presence
  // in tracker responses and gossip caches.
  const double stable_bias = config_.profile.discovery_stable_bias;
  if (stable_bias > 0.0 && rng_.chance(stable_bias)) {
    const auto probes = population_.probe_ids();
    for (int attempt = 0; attempt < 4; ++attempt) {
      const PeerId pick = probes[rng_.below(probes.size())];
      if (pick != ps.id) return pick;
    }
  }
  if (as_bias > 0.0 && rng_.chance(as_bias)) {
    const auto same_as = population_.peers_in_as(self.ep.as);
    if (same_as.size() > 1) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        const PeerId pick = same_as[rng_.below(same_as.size())];
        if (pick != ps.id) return pick;
      }
    }
  }
  // Peer exchange: ask one of our partners for one of *its* partners.
  // Only fully-simulated peers expose a partner list; routing through
  // a probe partner preferentially surfaces the other probes, which is
  // how the real stable/high-capacity probe clouds got so strongly
  // interconnected (Table III).
  if (!ps.partners.empty() &&
      rng_.chance(config_.profile.signaling.pex_fraction)) {
    const Partner& via = ps.partners[rng_.below(ps.partners.size())];
    if (probe_slot_[via.id] >= 0) {
      const ProbeState& qs =
          probes_[static_cast<std::size_t>(probe_slot_[via.id])];
      if (!qs.partners.empty()) {
        const PeerId pick = qs.partners[rng_.below(qs.partners.size())].id;
        if (pick != ps.id) return pick;
      }
    }
  }
  for (;;) {
    const auto pick =
        static_cast<PeerId>(rng_.below(population_.size()));
    if (pick != ps.id) return pick;
  }
}

bool Swarm::contact(ProbeState& ps, PeerId target) {
  const PeerInfo& self = population_.peer(ps.id);
  const PeerInfo& other = population_.peer(target);
  const auto fwd = topo_.path(self.ep, other.ep);
  const auto rev = topo_.path(other.ep, self.ep);
  const SimTime now = engine_.now();
  const auto bytes = config_.profile.signaling.handshake_bytes;
  trace::ProbeSink& sink = *sinks_[ps.index];

  // Relay detour latency when NAT traversal falls back to a relay;
  // zero on every other path, so the clean handshake bytes are
  // untouched.
  SimTime nat_extra = SimTime::zero();
  if (faults_active_ || nat_active_) {
    // A handshake to an offline peer — or one whose NAT/firewall
    // traversal fails — goes out and is never answered: the sniffer
    // records only our TX packets.
    double fail_p = 0.0;
    if (faults_active_ && config_.churn.connect_failures()) {
      if (other.access.nat) fail_p += config_.churn.nat_connect_failure;
      if (other.access.firewall) {
        fail_p += config_.churn.firewall_connect_failure;
      }
    }
    bool refused =
        (faults_active_ && !peer_online(target, now)) ||
        (fail_p > 0.0 && rng_.chance(std::min(fail_p, 1.0)));
    if (!refused && nat_active_) {
      const auto& matrix = config_.discovery.nat;
      const NatOutcome outcome = attempt_traversal(
          matrix, classify_nat(matrix, self, config_.seed),
          classify_nat(matrix, other, config_.seed), rng_);
      if (!outcome.ok) {
        refused = true;
        ++counters_.discovery.nat_blocked;
      } else if (outcome.relayed) {
        nat_extra = matrix.relay_penalty;
        ++counters_.discovery.nat_relayed;
      } else {
        ++counters_.discovery.nat_direct;
      }
    }
    if (refused) {
      for (int i = 0; i < config_.profile.signaling.handshake_packets; ++i) {
        sink.signaling_tx(sink.flow(other.ep.addr), now + SimTime::millis(i),
                          bytes);
      }
      ++counters_.contact_failures;
      if (discovery_) discovery_->contact_result(ps.id, target, false);
      return false;
    }
  }

  for (int i = 0; i < config_.profile.signaling.handshake_packets; ++i) {
    const SimTime tx = now + SimTime::millis(i);
    const SimTime rx = tx + fwd.one_way_delay + rev.one_way_delay +
                       SimTime::millis(2) + nat_extra;
    trace::FlowStats& flow = sink.flow(other.ep.addr);
    sink.signaling_tx(flow, tx, bytes);
    sink.signaling_rx(flow, rx, bytes, sim::ttl_after(rev.hops));
    if (probe_slot_[target] >= 0) {
      const auto slot = static_cast<std::size_t>(probe_slot_[target]);
      trace::ProbeSink& peer_sink = *sinks_[slot];
      trace::FlowStats& peer_flow = peer_sink.flow(self.ep.addr);
      peer_sink.signaling_rx(peer_flow, tx + fwd.one_way_delay + nat_extra,
                             bytes, sim::ttl_after(fwd.hops));
      peer_sink.signaling_tx(
          peer_flow, tx + fwd.one_way_delay + nat_extra + SimTime::millis(2),
          bytes);
      note_known(probes_[slot], ps.id);
    }
  }
  note_known(ps, target);
  ++counters_.contacts;
  if (discovery_) discovery_->contact_result(ps.id, target, true);
  return true;
}

void Swarm::bootstrap(ProbeState& ps) {
  ps.bootstrapped = true;
  const ChunkIndex newest = source_newest();
  ps.next_request =
      std::max<ChunkIndex>(0, newest - config_.profile.sched.window_chunks +
                                  config_.profile.sched.safety_chunks);
  // PPLive-style local discovery: same-/24 neighbours are found
  // immediately.
  if (config_.profile.lan_discovery) {
    const PeerInfo& self = population_.peer(ps.id);
    for (const PeerId other : population_.probe_ids()) {
      if (other != ps.id &&
          net::same_subnet24(self.ep.addr,
                             population_.peer(other).ep.addr)) {
        contact(ps, other);
      }
    }
  }
  const std::size_t initial = std::min<std::size_t>(
      40, population_.size() > 1 ? population_.size() - 1 : 0);
  if (discovery_) {
    // Pluggable path: the initial batch comes from the configured
    // backend, with failover and modeled control-plane latency.
    discovery_->begin_join(ps.id, engine_.now());
    discovery_join(ps);
  } else {
    // Tracker response: an initial batch of random peers.
    for (std::size_t i = 0; i < initial; ++i) {
      contact(ps, sample_peer(ps, config_.profile.discovery_as_bias));
    }
  }
  maintain_partners(ps);
}

void Swarm::run_discovery(ProbeState& ps) {
  const double period_s = config_.profile.sched.period.seconds();
  ps.discovery_credit +=
      config_.profile.signaling.contact_rate_per_s * period_s;
  if (discovery_) {
    const SimTime now = engine_.now();
    // Periodic backend upkeep: DHT bucket refresh / gossip exchange.
    if (discovery_->maintenance_due(ps.id, now)) discovery_join(ps);
    while (ps.discovery_credit >= 1.0) {
      ps.discovery_credit -= 1.0;
      const auto pick = discovery_->sample(ps.id, now, rng_);
      if (pick) {
        contact(ps, *pick);
      } else if (!discovery_->join_pending(ps.id)) {
        // The active backend has nothing to offer (tracker down, table
        // drained): run a failover-capable join round instead of
        // burning the remaining credit on misses.
        discovery_->begin_join(ps.id, now);
        discovery_join(ps);
        break;
      } else {
        break;  // join chain already in flight; wait for it
      }
    }
    return;
  }
  while (ps.discovery_credit >= 1.0) {
    ps.discovery_credit -= 1.0;
    contact(ps, sample_peer(ps, config_.profile.discovery_as_bias));
  }
}

void Swarm::discovery_join(ProbeState& ps) {
  PEERSCOPE_SPAN("discovery");
  const SimTime now = engine_.now();
  const std::size_t want = std::min<std::size_t>(
      40, population_.size() > 1 ? population_.size() - 1 : 0);
  JoinResult round = discovery_->join_round(ps.id, want, now, rng_);
  if (!round.ok || round.peers.empty()) {
    schedule_join_retry(ps);
    return;
  }
  // The candidate contacts land after the backend's modeled lookup
  // latency — that is what makes re-join latency measurable.
  const std::size_t index = ps.index;
  const std::uint64_t epoch = ps.tick_epoch;
  engine_.schedule_at(
      now + round.latency,
      [this, index, epoch, peers = std::move(round.peers)] {
        ProbeState& p = probes_[index];
        if (p.tick_epoch != epoch) return;  // crashed since scheduling
        if (faults_active_ && !p.online) return;
        discovery_join_landed(p, peers);
      });
}

void Swarm::discovery_join_landed(ProbeState& ps,
                                  std::span<const PeerId> peers) {
  bool any = false;
  for (const PeerId target : peers) {
    if (target == ps.id) continue;
    any = contact(ps, target) || any;
  }
  discovery_->finish_join(ps.id, engine_.now(), any);
  if (!any) {
    schedule_join_retry(ps);
    return;
  }
  maintain_partners(ps);
}

void Swarm::schedule_join_retry(ProbeState& ps) {
  const SimTime now = engine_.now();
  const SimTime delay = discovery_->next_join_backoff(ps.id);
  if (now + delay >= config_.duration) {
    // No attempt can land before the run ends; the open episode is
    // what rejoins_missed reports against the deadline.
    discovery_->finish_join(ps.id, now, false);
    return;
  }
  const std::size_t index = ps.index;
  const std::uint64_t epoch = ps.tick_epoch;
  engine_.schedule_at(now + delay, [this, index, epoch] {
    ProbeState& p = probes_[index];
    if (p.tick_epoch != epoch) return;
    if (faults_active_ && !p.online) return;
    discovery_join(p);
  });
}

Swarm::KeepaliveCapture Swarm::keepalive_capture(const ProbeState& ps,
                                                 PeerId partner) const {
  const PeerInfo& self = population_.peer(ps.id);
  const PeerInfo& other = population_.peer(partner);
  const auto fwd = topo_.path(self.ep, other.ep);
  const auto rev = topo_.path(other.ep, self.ep);
  return {fwd.one_way_delay + rev.one_way_delay + SimTime::millis(1),
          fwd.one_way_delay, fwd.one_way_delay + SimTime::millis(1),
          sim::ttl_after(rev.hops), sim::ttl_after(fwd.hops)};
}

void Swarm::send_keepalives(ProbeState& ps) {
  const net::Ipv4Addr self_addr = population_.peer(ps.id).ep.addr;
  const auto& sig = config_.profile.signaling;
  const double p_send = sig.keepalive_per_s *
                        config_.profile.sched.period.seconds();
  trace::ProbeSink& sink = *sinks_[ps.index];
  const SimTime now = engine_.now();
  for (Partner& partner : ps.partners) {
    if (!rng_.chance(p_send)) continue;
    // The flows are resolved here, where the first keepalive would
    // have created them; the counts wait for flush_keepalives.
    const std::int32_t slot = probe_slot_[partner.id];
    if (partner.flow == nullptr) {
      partner.flow = &sink.flow(population_.peer(partner.id).ep.addr);
    }
    if (slot >= 0 && partner.peer_flow == nullptr) {
      partner.peer_flow =
          &sinks_[static_cast<std::size_t>(slot)]->flow(self_addr);
    }
    if (partner.keepalives++ == 0) partner.keepalive_first = now;
    partner.keepalive_last = now;
    if (!sink.keeps_records()) continue;

    // Records are stored at send time, in capture order.
    const KeepaliveCapture at = keepalive_capture(ps, partner.id);
    const auto bytes = sig.keepalive_bytes;
    sink.record_signaling(*partner.flow, trace::Direction::kTx, now, bytes,
                          sim::kInitialTtl);
    sink.record_signaling(*partner.flow, trace::Direction::kRx,
                          now + at.probe_rx, bytes, at.probe_ttl);
    if (slot >= 0) {
      trace::ProbeSink& peer_sink = *sinks_[static_cast<std::size_t>(slot)];
      peer_sink.record_signaling(*partner.peer_flow, trace::Direction::kRx,
                                 now + at.partner_rx, bytes, at.partner_ttl);
      peer_sink.record_signaling(*partner.peer_flow, trace::Direction::kTx,
                                 now + at.partner_tx, bytes, sim::kInitialTtl);
    }
  }
}

void Swarm::flush_keepalives(const ProbeState& ps, Partner& partner) {
  const std::uint64_t n = partner.keepalives;
  if (n == 0) return;
  partner.keepalives = 0;
  // Every stamp is its send time plus a fixed offset, so the first and
  // last sends give each direction's exact minimum and maximum.
  const KeepaliveCapture at = keepalive_capture(ps, partner.id);
  const auto bytes = config_.profile.signaling.keepalive_bytes;
  const SimTime first = partner.keepalive_first;
  const SimTime last = partner.keepalive_last;
  trace::ProbeSink& sink = *sinks_[ps.index];
  sink.count_signaling(*partner.flow, trace::Direction::kTx, bytes,
                       sim::kInitialTtl, n, first, last);
  sink.count_signaling(*partner.flow, trace::Direction::kRx, bytes,
                       at.probe_ttl, n, first + at.probe_rx,
                       last + at.probe_rx);
  const std::int32_t slot = probe_slot_[partner.id];
  if (slot < 0) return;
  trace::ProbeSink& peer_sink = *sinks_[static_cast<std::size_t>(slot)];
  peer_sink.count_signaling(*partner.peer_flow, trace::Direction::kRx, bytes,
                            at.partner_ttl, n, first + at.partner_rx,
                            last + at.partner_rx);
  peer_sink.count_signaling(*partner.peer_flow, trace::Direction::kTx, bytes,
                            sim::kInitialTtl, n, first + at.partner_tx,
                            last + at.partner_tx);
}

void Swarm::retire_partner(ProbeState& ps, Partner& partner) {
  ps.belief_cache[partner.id] = partner.belief_mbps;
  flush_keepalives(ps, partner);
}

void Swarm::maintain_partners(ProbeState& ps) {
  const auto& sched = config_.profile.sched;
  // Scale the partner set to what the uplink can sustain signaling for:
  // home-DSL probes keep fewer partners, as the real clients do.
  const auto up_bps =
      static_cast<double>(population_.peer(ps.id).access.up_bps);
  const int target = std::max(
      8, static_cast<int>(sched.partner_target *
                          std::min(1.0, up_bps / 2'500'000.0)));

  // Drop the worst-performing partners (by bytes since last round).
  if (static_cast<int>(ps.partners.size()) >= target) {
    auto drop_count = static_cast<std::size_t>(
        static_cast<double>(ps.partners.size()) * sched.drop_fraction);
    drop_count = std::max<std::size_t>(drop_count, 1);
    std::sort(ps.partners.begin(), ps.partners.end(),
              [](const Partner& a, const Partner& b) {
                return a.bytes_delivered < b.bytes_delivered;
              });
    std::size_t dropped = 0;
    for (auto it = ps.partners.begin();
         it != ps.partners.end() && dropped < drop_count;) {
      if (it->inflight > 0) {
        ++it;
        continue;
      }
      retire_partner(ps, *it);
      it = ps.partners.erase(it);
      ++dropped;
    }
  }
  // Exogenous churn: some partners leave no matter how well they serve.
  for (int k = 0; k < sched.random_drops && !ps.partners.empty(); ++k) {
    const std::size_t victim = rng_.below(ps.partners.size());
    if (ps.partners[victim].inflight > 0) continue;
    retire_partner(ps, ps.partners[victim]);
    ps.partners.erase(ps.partners.begin() +
                      static_cast<std::ptrdiff_t>(victim));
  }

  for (Partner& partner : ps.partners) partner.bytes_delivered = 0;

  // Refill from the known set. Admission is *uniform* over known peers:
  // selection biases act in discovery (which peers become known) and in
  // chunk scheduling (who gets asked), matching the per-system designs.
  if (ps.known_list.empty()) return;
  int deficit = target - static_cast<int>(ps.partners.size());
  int attempts = deficit * 8;
  while (deficit > 0 && attempts-- > 0) {
    const PeerId pick = ps.known_list[rng_.below(ps.known_list.size())];
    if (pick == ps.id || population_.peer(pick).is_source) continue;
    if (faults_active_ && ps.blacklisted(pick)) continue;
    const bool already =
        std::any_of(ps.partners.begin(), ps.partners.end(),
                    [pick](const Partner& p) { return p.id == pick; });
    if (already) continue;
    // Peers that served us well before are re-admitted preferentially
    // (rejection sampling on the cached belief); unknown peers keep a
    // solid floor so the pool never stops being explored.
    const double belief = cached_belief(ps, pick);
    const double accept = 0.15 + 0.85 * std::min(belief, 20.0) / 20.0;
    if (!rng_.chance(accept)) continue;
    ps.partners.push_back({pick, belief, 0, 0});
    --deficit;
  }
}

void Swarm::schedule_requests(ProbeState& ps) {
  const auto& sched = config_.profile.sched;
  const ChunkIndex newest = source_newest();
  const ChunkIndex lo =
      std::max(ps.next_request, newest - sched.window_chunks);
  const ChunkIndex hi = newest - sched.safety_chunks;
  ps.next_request = std::max(ps.next_request, lo);

  // Expire timed-out requests so the chunk can be retried elsewhere.
  const SimTime now = engine_.now();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ps.inflight.size(); ++i) {
    const ProbeState::Inflight entry = ps.inflight[i];
    if (entry.deadline < now) {
      ++counters_.timeouts;
      if (faults_active_) {
        on_request_failed(ps, entry.chunk, entry.from);
      }
    } else {
      ps.inflight[kept++] = entry;
    }
  }
  ps.inflight.resize(kept);
  if (faults_active_) {
    // Garbage-collect recovery state that slid out of the window and
    // blacklist entries that served their sentence.
    std::erase_if(ps.chunk_failures,
                  [lo](const auto& kv) { return kv.first < lo; });
    std::erase_if(ps.retry_after,
                  [lo](const auto& kv) { return kv.first < lo; });
    std::erase_if(ps.blacklist_until,
                  [now](const auto& kv) { return kv.second <= now; });
  }

  if (ps.partners.empty()) return;
  thread_local std::vector<Candidate> candidates;
  thread_local std::vector<std::size_t> candidate_slot;

  const PeerInfo& self = population_.peer(ps.id);
  for (ChunkIndex c = lo; c <= hi; ++c) {
    if (static_cast<int>(ps.inflight.size()) >= sched.max_inflight) break;
    if (ps.buffer.has(c) || ps.inflight_contains(c)) continue;
    // Two-speed scheduling: chunks still young are pulled
    // opportunistically, overdue ones urgently.
    const bool urgent = newest - c >= sched.due_chunks;
    if (faults_active_) {
      // Honour the retry backoff set when this chunk last timed out.
      const auto it = std::find_if(
          ps.retry_after.begin(), ps.retry_after.end(),
          [c](const auto& kv) { return kv.first == c; });
      if (it != ps.retry_after.end() && now < it->second) continue;
    }
    if (!urgent && !rng_.chance(sched.eager_prob)) continue;

    candidates.clear();
    candidate_slot.clear();
    const bool wants_rtt = config_.profile.select.low_rtt > 0.0;
    for (std::size_t slot = 0; slot < ps.partners.size(); ++slot) {
      Partner& partner = ps.partners[slot];
      if (partner.inflight >= 3) continue;
      if (faults_active_ &&
          (!peer_online(partner.id, now) || ps.blacklisted(partner.id))) {
        continue;
      }
      if (!peer_has_chunk(partner, c)) continue;
      const PeerInfo& other = population_.peer(partner.id);
      Candidate candidate{partner.id, partner.belief_mbps,
                          other.ep.as == self.ep.as,
                          other.ep.country == self.ep.country, 0.0};
      if (wants_rtt) {
        // Next-gen policies probe RTT actively (paper §III: "it is
        // straightforward to actively measure RTT").
        candidate.rtt_ms = (topo_.path(self.ep, other.ep).one_way_delay +
                            topo_.path(other.ep, self.ep).one_way_delay)
                               .millis();
      }
      candidates.push_back(candidate);
      candidate_slot.push_back(slot);
    }
    if (candidates.empty()) continue;
    const std::size_t pick =
        pick_candidate(candidates, config_.profile.select, rng_);
    request_chunk(ps, ps.partners[candidate_slot[pick]], c);
  }
}

void Swarm::request_chunk(ProbeState& ps, Partner& partner, ChunkIndex chunk) {
  const auto& stream = config_.profile.stream;
  const PeerInfo& self = population_.peer(ps.id);
  const PeerInfo& other = population_.peer(partner.id);
  const auto fwd = topo_.path(self.ep, other.ep);   // request direction
  const auto rev = topo_.path(other.ep, self.ep);   // video direction
  const SimTime now = engine_.now();
  trace::ProbeSink& sink = *sinks_[ps.index];

  if (partner.flow == nullptr) partner.flow = &sink.flow(other.ep.addr);
  sink.signaling_tx(*partner.flow, now,
                    config_.profile.signaling.request_bytes);

  if (faults_active_ && !peer_online(partner.id, now)) {
    // Dead request: the partner crashed or flapped offline since it was
    // admitted. The request packet is spent, nothing comes back, and
    // the timeout path turns this into a retry.
    ps.inflight.push_back(
        {chunk, partner.id, now + config_.profile.sched.request_timeout});
    ++partner.inflight;
    return;
  }

  const SimTime service_start =
      now + fwd.one_way_delay + SimTime::millis(2);
  sim::TrainSpec spec;
  spec.start = service_start;
  spec.packet_count = stream.packets_per_chunk();
  spec.packet_bytes = stream.packet_bytes;
  spec.impairment = config_.impairment;
  spec.link_key = ps.id;  // outage schedule keyed on the receiver link
  const sim::TrainResult train = sim::transmit_train(
      spec, other.access, up_[partner.id], self.access, down_[ps.id], rev,
      rng_, channel_for(partner.id, ps.id), train_metrics_);

  sink.video_train_rx(*partner.flow, train.arrivals, stream.packet_bytes,
                      sim::ttl_after(rev.hops));
  if (probe_slot_[partner.id] >= 0) {
    trace::ProbeSink& peer_sink =
        *sinks_[static_cast<std::size_t>(probe_slot_[partner.id])];
    if (partner.peer_flow == nullptr) {
      partner.peer_flow = &peer_sink.flow(self.ep.addr);
    }
    peer_sink.signaling_rx(*partner.peer_flow, now + fwd.one_way_delay,
                           config_.profile.signaling.request_bytes,
                           sim::ttl_after(fwd.hops));
    peer_sink.video_train_tx(*partner.peer_flow, train.departures,
                             stream.packet_bytes);
  }

  // Burst throughput observed by the downloader — the bandwidth signal
  // the application's own selection feeds on (RTT-independent, like a
  // sustained pipelined transfer).
  double rate_mbps = 1.0;
  if (train.arrivals.size() >= 2) {
    const double span =
        (train.arrivals.back() - train.arrivals.front()).seconds();
    if (span > 0) {
      rate_mbps = static_cast<double>(train.arrivals.size() - 1) *
                  static_cast<double>(stream.packet_bytes) * 8.0 / span / 1e6;
    }
  }

  ps.inflight.push_back(
      {chunk, partner.id, now + config_.profile.sched.request_timeout});
  ++partner.inflight;
  const PeerId from = partner.id;
  const auto bytes = static_cast<std::uint64_t>(train.arrivals.size()) *
                     static_cast<std::uint64_t>(stream.packet_bytes);
  // A fully-lost train never completes: the timeout path retries it.
  if (train.arrivals.empty()) return;
  const std::size_t probe_index = ps.index;
  engine_.schedule_at(train.completed(), [this, probe_index, from, chunk, now,
                                          rate_mbps, bytes] {
    complete_chunk(probes_[probe_index], from, chunk, now, rate_mbps, bytes);
  });
}

void Swarm::complete_chunk(ProbeState& ps, PeerId from, ChunkIndex chunk,
                           util::SimTime /*requested*/, double train_rate_mbps,
                           std::uint64_t bytes) {
  if (faults_active_ && !ps.online) return;  // crashed mid-delivery
  const auto it = std::find_if(
      ps.inflight.begin(), ps.inflight.end(),
      [chunk](const ProbeState::Inflight& f) { return f.chunk == chunk; });
  if (it != ps.inflight.end() && it->from == from) {
    ps.inflight.erase(it);
  }
  if (faults_active_) {
    std::erase_if(ps.chunk_failures,
                  [chunk](const auto& kv) { return kv.first == chunk; });
    std::erase_if(ps.retry_after,
                  [chunk](const auto& kv) { return kv.first == chunk; });
  }
  if (ps.buffer.mark(chunk)) {
    ++counters_.chunks_delivered;
  } else {
    ++counters_.chunks_duplicate;
  }
  for (Partner& partner : ps.partners) {
    if (partner.id != from) continue;
    partner.belief_mbps = 0.7 * partner.belief_mbps + 0.3 * train_rate_mbps;
    partner.bytes_delivered += bytes;
    if (partner.inflight > 0) --partner.inflight;
    partner.consecutive_failures = 0;
    return;
  }
  // Partner was dropped while the chunk was in flight; remember what we
  // learned about it anyway.
  ps.belief_cache[from] = 0.7 * cached_belief(ps, from) + 0.3 * train_rate_mbps;
}

void Swarm::try_spawn_requester(ProbeState& ps) {
  const auto& upload = config_.profile.upload;
  const PeerInfo& self = population_.peer(ps.id);

  const bool accepting = !faults_active_ || ps.online;
  if (accepting && ps.active_requesters < upload.max_requesters) {
    // Find a background peer that discovered this probe.
    PeerId pick = 0;
    bool found = false;
    for (int attempt = 0; attempt < 8 && !found; ++attempt) {
      pick = sample_peer(ps, config_.profile.discovery_as_bias);
      const PeerInfo& cand = population_.peer(pick);
      if (!cand.is_probe && !cand.is_source) found = true;
    }
    if (found) {
      const PeerInfo& cand = population_.peer(pick);
      // A Requester lives for the probe's whole partnership with
      // this peer, not per event.
      // peerscope-lint: allow(engine-hot-path)
      auto req = std::make_shared<Requester>();
      req->id = pick;
      req->stream_share =
          cand.access.is_high_bandwidth()
              ? rng_.uniform(upload.share_hi_lo, upload.share_hi_hi)
              : rng_.uniform(upload.share_lo_lo, upload.share_lo_hi);
      // Local (same-AS) downloader sessions are markedly more stable
      // than long-haul ones — they hold their supplier far longer.
      const double lifetime =
          upload.requester_lifetime_s *
          (cand.ep.as == self.ep.as ? 2.5 : 1.0);
      req->leaves = engine_.now() +
                    SimTime::from_seconds(session_length_s(lifetime, rng_));
      ++ps.active_requesters;
      note_known(ps, pick);
      const std::size_t probe_index = ps.index;
      engine_.schedule_after(SimTime::millis(5), [this, probe_index, req] {
        requester_loop(probes_[probe_index], req);
      });
    }
  }
}

void Swarm::spawn_requester(ProbeState& ps) {
  const auto& upload = config_.profile.upload;
  const PeerInfo& self = population_.peer(ps.id);
  try_spawn_requester(ps);

  // Next arrival (NAT/firewall suppress inbound connections).
  double rate = upload.requester_arrival_per_s;
  if (self.access.firewall) rate *= 0.25;
  if (self.access.nat) rate *= 0.6;
  const std::size_t probe_index = ps.index;
  engine_.schedule_after(
      SimTime::from_seconds(rng_.exponential(1.0 / rate)),
      [this, probe_index] { spawn_requester(probes_[probe_index]); });
}

void Swarm::requester_loop(ProbeState& ps, std::shared_ptr<Requester> req) {
  const SimTime now = engine_.now();
  if (now >= req->leaves || now >= config_.duration) {
    --ps.active_requesters;
    return;
  }
  if (faults_active_ && !ps.online) {
    // Supplier crashed: the downloader's session is over.
    --ps.active_requesters;
    return;
  }
  const auto& stream = config_.profile.stream;
  const auto& upload = config_.profile.upload;
  const PeerInfo& self = population_.peer(ps.id);
  const PeerInfo& other = population_.peer(req->id);

  const SimTime next_period = SimTime::from_seconds(
      chunk_interval_.seconds() / req->stream_share *
      rng_.uniform(0.85, 1.15));
  const std::size_t probe_index = ps.index;
  engine_.schedule_after(next_period, [this, probe_index, req] {
    requester_loop(probes_[probe_index], req);
  });

  if (faults_active_ && !peer_online(req->id, now)) {
    return;  // downloader flapped offline; it may resume next period
  }
  if (up_[ps.id].backlog(now) > upload.backlog_limit) {
    ++counters_.requests_refused;
    return;
  }
  const ChunkIndex newest = ps.buffer.newest();
  if (newest < 0) return;
  ChunkIndex chunk = newest - static_cast<ChunkIndex>(rng_.below(
                                  static_cast<std::uint64_t>(
                                      config_.profile.sched.window_chunks) /
                                  2 +
                                  1));
  if (!ps.buffer.has(chunk)) chunk = newest;
  if (!ps.buffer.has(chunk)) return;

  const auto fwd = topo_.path(other.ep, self.ep);  // request direction
  const auto rev = topo_.path(self.ep, other.ep);  // video direction
  trace::ProbeSink& sink = *sinks_[ps.index];
  if (req->flow == nullptr) req->flow = &sink.flow(other.ep.addr);
  sink.signaling_rx(*req->flow, now, config_.profile.signaling.request_bytes,
                    sim::ttl_after(fwd.hops));

  sim::TrainSpec spec;
  spec.start = now + SimTime::millis(1);
  spec.packet_count = stream.packets_per_chunk();
  spec.packet_bytes = stream.packet_bytes;
  spec.impairment = config_.impairment;
  spec.link_key = req->id;
  const sim::TrainResult train = sim::transmit_train(
      spec, self.access, up_[ps.id], other.access, down_[req->id], rev, rng_,
      channel_for(ps.id, req->id), train_metrics_);
  sink.video_train_tx(*req->flow, train.departures, stream.packet_bytes);
  ++counters_.chunks_uploaded;
}

void Swarm::zap_probe(ProbeState& ps) {
  // Channel zap: the client drops its partners and in-flight work, but
  // keeps a zap_reuse fraction of its known peers — the cross-channel
  // cache commercial clients carry between channels.
  for (Partner& partner : ps.partners) retire_partner(ps, partner);
  ps.partners.clear();
  ps.inflight.clear();
  if (faults_active_) {
    ps.chunk_failures.clear();
    ps.retry_after.clear();
  }
  const double reuse = config_.discovery.zap_reuse;
  std::vector<PeerId> kept;
  kept.reserve(ps.known_list.size());
  for (const PeerId id : ps.known_list) {
    if (discovery_rng_.chance(reuse)) kept.push_back(id);
  }
  ps.known_list = std::move(kept);
  std::fill(ps.known_bits.begin(), ps.known_bits.end(), false);
  for (const PeerId id : ps.known_list) ps.known_bits[id] = true;
  ps.bootstrapped = false;  // the next tick re-joins through discovery
  if (discovery_) discovery_->begin_join(ps.id, engine_.now());
}

void Swarm::flash_crowd() {
  const SimTime now = engine_.now();
  if (now >= config_.duration) return;
  PEERSCOPE_TRACE_INSTANT("p2p.discovery.flash_crowd");
  for (ProbeState& ps : probes_) {
    if (faults_active_ && !ps.online) continue;
    zap_probe(ps);
  }
  // Correlated arrival burst: the zapped channel's new audience hits
  // the probes' uplinks within a couple of seconds, not as a Poisson
  // trickle. Arrivals round-robin the probes with exponential gaps.
  const int arrivals = config_.discovery.flash_crowd_arrivals;
  for (int i = 0; i < arrivals; ++i) {
    const std::size_t index = static_cast<std::size_t>(i) % probes_.size();
    const SimTime at =
        now + SimTime::from_seconds(discovery_rng_.exponential(0.5));
    engine_.schedule_at(at, [this, index] {
      ProbeState& ps = probes_[index];
      if (engine_.now() >= config_.duration) return;
      if (faults_active_ && !ps.online) return;
      ++counters_.discovery.flash_arrivals;
      try_spawn_requester(ps);
    });
  }
}

Swarm::DiscoveryReport Swarm::discovery_report() const {
  DiscoveryReport report;
  if (!discovery_) return report;
  report.rejoins_missed = discovery_->rejoins_missed(
      config_.discovery.rejoin_deadline, config_.duration);
  report.rejoin_latencies_s.reserve(discovery_->rejoin_latencies().size());
  for (const SimTime latency : discovery_->rejoin_latencies()) {
    report.rejoin_latencies_s.push_back(latency.seconds());
  }
  return report;
}

void Swarm::tick(ProbeState& ps) {
  const SimTime now = engine_.now();
  if (now >= config_.duration) return;
  if (faults_active_ && !ps.online) return;  // chain dies until rejoin
  if (!ps.bootstrapped) bootstrap(ps);

  run_discovery(ps);
  schedule_requests(ps);
  send_keepalives(ps);

  const std::size_t probe_index = ps.index;
  const std::uint64_t epoch = ps.tick_epoch;
  engine_.schedule_after(config_.profile.sched.period,
                         [this, probe_index, epoch] {
    ProbeState& next = probes_[probe_index];
    if (next.tick_epoch != epoch) return;  // crashed since scheduling
    tick(next);
  });
}

void Swarm::run() {
  if (ran_) throw std::logic_error("Swarm::run called twice");
  ran_ = true;
  PEERSCOPE_SPAN("swarm_run");
  train_metrics_ = sim::TrainMetrics::resolve();
  engine_.set_cancel(config_.cancel);
  engine_.set_progress(config_.progress);

  // Arm the sim-time sampling grid only when someone is listening —
  // with neither a series recorder nor a progress sink the engine's
  // per-event cost (and therefore the run's byte-level output) is
  // unchanged. The grid spacing comes from the recorder so every
  // run's series shares it; SLO-only runs sample each sim-second.
  const bool series_on = obs::series_enabled();
  if (series_on || config_.progress != nullptr) {
    const SimTime grid = series_on ? obs::series()->interval()
                                   : SimTime::seconds(1);
    engine_.set_sampler(grid, [this, series_on](std::uint64_t index,
                                                SimTime at) {
      sample_interval(series_on, index, at);
    });
  }

  // Channel-zap flash crowd, if one is scheduled for this run.
  if (discovery_active_ && config_.discovery.flash_crowd()) {
    engine_.schedule_at(config_.discovery.flash_crowd_at,
                        [this] { flash_crowd(); });
  }

  for (const ProbeState& ps : probes_) {
    const std::size_t probe_index = ps.index;
    // Staggered joins within the first two seconds.
    const SimTime start =
        SimTime::from_seconds(0.1 + rng_.uniform01() * 2.0);
    engine_.schedule_at(start,
                        [this, probe_index] { tick(probes_[probe_index]); });

    // Probe crash/rejoin process rides alongside the protocol.
    if (config_.churn.probe_churn()) {
      schedule_probe_crash(probe_index);
    }

    // Partner maintenance on its own slower cadence.
    struct Maintenance {
      static void fire(Swarm* swarm, std::size_t index) {
        if (swarm->engine_.now() >= swarm->config_.duration) return;
        if (swarm->faults_active_ && !swarm->probes_[index].online) {
          // Crashed: keep the cadence alive, skip the work.
          swarm->engine_.schedule_after(
              swarm->config_.profile.sched.maintenance_period,
              [swarm, index] { Maintenance::fire(swarm, index); });
          return;
        }
        swarm->maintain_partners(swarm->probes_[index]);
        swarm->engine_.schedule_after(
            swarm->config_.profile.sched.maintenance_period,
            [swarm, index] { Maintenance::fire(swarm, index); });
      }
    };
    engine_.schedule_at(
        start + config_.profile.sched.maintenance_period,
        [this, probe_index] { Maintenance::fire(this, probe_index); });

    // Background demand for this probe's upload capacity.
    engine_.schedule_at(
        start + SimTime::from_seconds(
                    rng_.exponential(
                        1.0 / config_.profile.upload.requester_arrival_per_s)),
        [this, probe_index] { spawn_requester(probes_[probe_index]); });
  }

  engine_.run_until(config_.duration);
  // The partners still in their sets owe the sinks their keepalives.
  for (ProbeState& ps : probes_) {
    for (Partner& partner : ps.partners) flush_keepalives(ps, partner);
  }

  if (discovery_) {
    // Merge the service-owned control-plane counters; the NAT and
    // flash-crowd fields are incremented directly by the swarm (they
    // also fire when no backend is configured) and must survive.
    const DiscoveryCounters& dc = discovery_->counters();
    auto& out = counters_.discovery;
    out.tracker_queries = dc.tracker_queries;
    out.tracker_failures = dc.tracker_failures;
    out.dht_lookups = dc.dht_lookups;
    out.dht_hops = dc.dht_hops;
    out.dht_hop_timeouts = dc.dht_hop_timeouts;
    out.dht_evictions = dc.dht_evictions;
    out.gossip_exchanges = dc.gossip_exchanges;
    out.gossip_partitions = dc.gossip_partitions;
    out.failovers = dc.failovers;
    out.recoveries = dc.recoveries;
    out.joins_ok = dc.joins_ok;
    out.join_retries = dc.join_retries;
  }

  // Timeline marker for the drained swarm: the chunk total is ground
  // truth at this point, so the sample is deterministic per seed.
  PEERSCOPE_TRACE_INSTANT("p2p.swarm_complete");
  PEERSCOPE_TRACE_COUNTER(
      "p2p.chunks_delivered",
      static_cast<std::int64_t>(counters_.chunks_delivered));

  // Publish the run's ground-truth counters once, after the event loop
  // drains — the protocol steps themselves stay metrics-free.
  if (obs::enabled()) {
    obs::counter("p2p.swarms_run").add();
    obs::counter("p2p.chunks_delivered").add(counters_.chunks_delivered);
    obs::counter("p2p.chunks_duplicate").add(counters_.chunks_duplicate);
    obs::counter("p2p.chunks_uploaded").add(counters_.chunks_uploaded);
    obs::counter("p2p.chunks_retried").add(counters_.chunks_retried);
    obs::counter("p2p.requests_refused").add(counters_.requests_refused);
    obs::counter("p2p.contacts").add(counters_.contacts);
    obs::counter("p2p.contact_failures").add(counters_.contact_failures);
    obs::counter("p2p.timeouts").add(counters_.timeouts);
    obs::counter("p2p.churn_probe_crashes").add(counters_.probe_crashes);
    obs::counter("p2p.partners_blacklisted")
        .add(counters_.partners_blacklisted);
    if (discovery_active_) {
      // Registered only when the subsystem ran, so clean-run
      // metrics.json stays byte-identical (the trace_events_dropped
      // pattern).
      const auto& dc = counters_.discovery;
      obs::counter("p2p.discovery.tracker_queries").add(dc.tracker_queries);
      obs::counter("p2p.discovery.tracker_failures")
          .add(dc.tracker_failures);
      obs::counter("p2p.discovery.dht_lookups").add(dc.dht_lookups);
      obs::counter("p2p.discovery.dht_hops").add(dc.dht_hops);
      obs::counter("p2p.discovery.dht_hop_timeouts")
          .add(dc.dht_hop_timeouts);
      obs::counter("p2p.discovery.dht_evictions").add(dc.dht_evictions);
      obs::counter("p2p.discovery.gossip_exchanges")
          .add(dc.gossip_exchanges);
      obs::counter("p2p.discovery.gossip_partitions")
          .add(dc.gossip_partitions);
      obs::counter("p2p.discovery.failovers").add(dc.failovers);
      obs::counter("p2p.discovery.recoveries").add(dc.recoveries);
      obs::counter("p2p.discovery.joins_ok").add(dc.joins_ok);
      obs::counter("p2p.discovery.join_retries").add(dc.join_retries);
      obs::counter("p2p.discovery.nat_direct").add(dc.nat_direct);
      obs::counter("p2p.discovery.nat_relayed").add(dc.nat_relayed);
      obs::counter("p2p.discovery.nat_blocked").add(dc.nat_blocked);
      obs::counter("p2p.discovery.flash_arrivals").add(dc.flash_arrivals);
      if (discovery_) {
        obs::Histogram rejoin = obs::histogram(
            "p2p.discovery.rejoin_latency_ns", obs::timing_bounds(), true);
        for (const SimTime latency : discovery_->rejoin_latencies()) {
          rejoin.observe(latency.ns());
        }
        obs::counter("p2p.discovery.rejoins_missed")
            .add(discovery_->rejoins_missed(config_.discovery.rejoin_deadline,
                                            config_.duration));
      }
    }
    std::uint64_t captured_pkts = 0, captured_bytes = 0;
    for (const auto& sink : sinks_) {
      captured_pkts +=
          sink->flows().total_rx_pkts() + sink->flows().total_tx_pkts();
      captured_bytes +=
          sink->flows().total_rx_bytes() + sink->flows().total_tx_bytes();
    }
    obs::counter("trace.packets_captured").add(captured_pkts);
    obs::counter("trace.bytes_captured").add(captured_bytes);
  }
}

void Swarm::sample_interval(bool series_on, std::uint64_t index,
                            SimTime at) {
  // Fold the rejoin latencies that completed since the previous grid
  // point into (a) this interval's histogram and (b) the cumulative
  // one whose p99 the SLO watchdog compares against its ceiling.
  obs::LogHistogram rejoins;
  if (discovery_) {
    const auto& latencies = discovery_->rejoin_latencies();
    for (std::size_t i = sample_.rejoins_seen; i < latencies.size(); ++i) {
      rejoins.record(latencies[i].ns());
    }
    sample_.rejoins_seen = latencies.size();
    if (rejoins.count() > 0) {
      sample_.rejoin_cumulative.merge(rejoins);
      if (config_.progress != nullptr) {
        config_.progress->rejoin_p99_ns.store(
            sample_.rejoin_cumulative.quantile(0.99),
            std::memory_order_relaxed);
      }
    }
  }
  if (!series_on) return;

  obs::SeriesRow row;
  // Engine throughput always lands (a zero marks an idle interval);
  // protocol counters land only when they moved, keeping rows sparse.
  row.counters.emplace("sim.events_executed",
                       engine_.executed() - sample_.prev_events);
  sample_.prev_events = engine_.executed();
  const auto delta = [&row](const char* name, std::uint64_t now_value,
                            std::uint64_t& prev_value) {
    if (now_value != prev_value) {
      row.counters.emplace(name, now_value - prev_value);
      prev_value = now_value;
    }
  };
  Counters& prev = sample_.prev;
  delta("p2p.chunks_delivered", counters_.chunks_delivered,
        prev.chunks_delivered);
  delta("p2p.chunks_duplicate", counters_.chunks_duplicate,
        prev.chunks_duplicate);
  delta("p2p.chunks_uploaded", counters_.chunks_uploaded,
        prev.chunks_uploaded);
  delta("p2p.chunks_retried", counters_.chunks_retried,
        prev.chunks_retried);
  delta("p2p.requests_refused", counters_.requests_refused,
        prev.requests_refused);
  delta("p2p.contacts", counters_.contacts, prev.contacts);
  delta("p2p.contact_failures", counters_.contact_failures,
        prev.contact_failures);
  delta("p2p.timeouts", counters_.timeouts, prev.timeouts);
  delta("p2p.churn_probe_crashes", counters_.probe_crashes,
        prev.probe_crashes);
  delta("p2p.partners_blacklisted", counters_.partners_blacklisted,
        prev.partners_blacklisted);
  if (discovery_) {
    // Control-plane counters live in the service until run() merges
    // them; sample them live.
    const DiscoveryCounters& dc = discovery_->counters();
    DiscoveryCounters& pdc = sample_.prev_discovery;
    delta("p2p.discovery.joins_ok", dc.joins_ok, pdc.joins_ok);
    delta("p2p.discovery.join_retries", dc.join_retries, pdc.join_retries);
    delta("p2p.discovery.failovers", dc.failovers, pdc.failovers);
    delta("p2p.discovery.recoveries", dc.recoveries, pdc.recoveries);
    delta("p2p.discovery.tracker_queries", dc.tracker_queries,
          pdc.tracker_queries);
    delta("p2p.discovery.dht_lookups", dc.dht_lookups, pdc.dht_lookups);
    delta("p2p.discovery.gossip_exchanges", dc.gossip_exchanges,
          pdc.gossip_exchanges);
  }
  if (rejoins.count() > 0) {
    row.histograms.emplace("p2p.discovery.rejoin_latency_ns",
                           std::move(rejoins));
  }
  const std::string& key = config_.series_key.empty()
                               ? config_.profile.name
                               : config_.series_key;
  obs::series()->record(key, index, at, std::move(row));
}

}  // namespace peerscope::p2p
