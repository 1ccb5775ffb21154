#include "p2p/discovery.hpp"

#include <algorithm>
#include <bit>

#include "obs/trace.hpp"

namespace peerscope::p2p {

using util::SimTime;

const char* to_string(DiscoveryBackendKind kind) {
  switch (kind) {
    case DiscoveryBackendKind::kNone:
      return "none";
    case DiscoveryBackendKind::kTracker:
      return "tracker";
    case DiscoveryBackendKind::kDht:
      return "dht";
    case DiscoveryBackendKind::kGossip:
      return "gossip";
  }
  return "unknown";
}

std::optional<DiscoveryBackendKind> parse_backend_kind(std::string_view text) {
  if (text == "tracker") return DiscoveryBackendKind::kTracker;
  if (text == "dht") return DiscoveryBackendKind::kDht;
  if (text == "gossip") return DiscoveryBackendKind::kGossip;
  return std::nullopt;
}

// ---------------------------------------------------------------------
// NAT matrix

NatClass classify_nat(const NatMatrix& matrix, const PeerInfo& peer,
                      std::uint64_t seed) {
  if (!peer.access.nat) return NatClass::kOpen;
  // Deterministic cone/symmetric split: a pure function of
  // (seed, peer), like every other per-peer hash draw in the swarm.
  util::SplitMix64 mix{seed ^ (0x5a7c3ULL + peer.id)};
  const double u = static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
  return u < matrix.symmetric_fraction ? NatClass::kSymmetric
                                       : NatClass::kCone;
}

NatOutcome attempt_traversal(const NatMatrix& matrix, NatClass a, NatClass b,
                             util::Rng& rng) {
  double direct = 1.0;
  if (a == NatClass::kOpen || b == NatClass::kOpen) {
    direct = 1.0;  // one open endpoint: the NAT'd side dials out
  } else if (a == NatClass::kCone && b == NatClass::kCone) {
    direct = matrix.cone_cone;
  } else if (a == NatClass::kSymmetric && b == NatClass::kSymmetric) {
    direct = matrix.symmetric_symmetric;
  } else {
    direct = matrix.cone_symmetric;
  }
  if (direct >= 1.0) return {true, false};
  if (rng.chance(direct)) return {true, false};
  if (rng.chance(matrix.relay_success)) return {true, true};
  return {false, false};
}

// ---------------------------------------------------------------------
// DHT building blocks

NodeId dht_node_id(std::uint64_t seed, PeerId peer) {
  util::SplitMix64 mix{seed ^ (0xd47a11ULL + peer)};
  return static_cast<NodeId>(mix.next() >> 32);
}

RoutingTable::RoutingTable(NodeId self, int k)
    : self_(self), k_(std::max(1, k)) {}

int RoutingTable::bucket_of(NodeId id) const {
  const NodeId d = xor_distance(self_, id);
  if (d == 0) return 0;
  return static_cast<int>(std::bit_width(d)) - 1;  // prefix bucket, 0..31
}

bool RoutingTable::insert(NodeId id, PeerId peer) {
  if (members_.contains(peer)) return false;
  auto& bucket = buckets_[static_cast<std::size_t>(bucket_of(id))];
  if (bucket.size() >= static_cast<std::size_t>(k_)) return false;
  bucket.push_back({id, peer});
  members_.insert(peer);
  return true;
}

void RoutingTable::evict(PeerId peer) {
  if (members_.erase(peer) == 0) return;
  for (auto& bucket : buckets_) {
    const auto it = std::find_if(
        bucket.begin(), bucket.end(),
        [peer](const Entry& e) { return e.peer == peer; });
    if (it != bucket.end()) {
      bucket.erase(it);
      return;
    }
  }
}

std::vector<PeerId> RoutingTable::closest(NodeId target,
                                          std::size_t n) const {
  std::vector<Entry> all;
  all.reserve(members_.size());
  for (const auto& bucket : buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
  }
  std::sort(all.begin(), all.end(),
            [target](const Entry& a, const Entry& b) {
              const NodeId da = xor_distance(a.id, target);
              const NodeId db = xor_distance(b.id, target);
              return da != db ? da < db : a.peer < b.peer;
            });
  if (all.size() > n) all.resize(n);
  std::vector<PeerId> out;
  out.reserve(all.size());
  for (const Entry& e : all) out.push_back(e.peer);
  return out;
}

std::optional<PeerId> RoutingTable::sample(util::Rng& rng) const {
  if (members_.empty()) return std::nullopt;
  // Buckets are scanned in order; sizes are tiny (32 * k), so a flat
  // index draw stays cheap and deterministic.
  std::uint64_t index = rng.below(members_.size());
  for (const auto& bucket : buckets_) {
    if (index < bucket.size()) return bucket[index].peer;
    index -= bucket.size();
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------
// Gossip view

bool GossipView::add(PeerId peer, util::Rng& rng) {
  if (set_.contains(peer)) return false;
  if (list_.size() >= capacity_) {
    const std::size_t victim = rng.below(list_.size());
    set_.erase(list_[victim]);
    list_[victim] = peer;
    set_.insert(peer);
    return true;
  }
  list_.push_back(peer);
  set_.insert(peer);
  return true;
}

void GossipView::erase(PeerId peer) {
  if (set_.erase(peer) == 0) return;
  list_.erase(std::find(list_.begin(), list_.end(), peer));
}

std::vector<PeerId> GossipView::sample(util::Rng& rng, std::size_t n) const {
  std::vector<PeerId> out;
  for (const std::size_t i :
       rng.sample_without_replacement(list_.size(), n)) {
    out.push_back(list_[i]);
  }
  return out;
}

// ---------------------------------------------------------------------
// Backends

void DiscoveryBackend::contact_result(PeerId /*self*/, PeerId /*peer*/,
                                      bool /*ok*/) {}

namespace {

/// Modeled tracker round trip: one HTTP-ish exchange with a
/// well-provisioned server, independent of peer topology.
constexpr SimTime kTrackerRtt = SimTime::millis(80);

class TrackerBackend final : public DiscoveryBackend {
 public:
  TrackerBackend(const DiscoveryService& service, DiscoveryHost& host,
                 DiscoveryCounters& counters)
      : service_(service), host_(host), counters_(counters) {}

  [[nodiscard]] DiscoveryBackendKind kind() const override {
    return DiscoveryBackendKind::kTracker;
  }

  JoinResult join(PeerId self, std::size_t want, SimTime now,
                  util::Rng& rng) override {
    JoinResult result;
    if (!service_.tracker_available(now)) {
      ++counters_.tracker_failures;
      return result;  // request sent, nothing comes back
    }
    ++counters_.tracker_queries;
    result.ok = true;
    result.latency = kTrackerRtt;
    result.peers.reserve(want);
    for (std::size_t i = 0; i < want; ++i) {
      result.peers.push_back(host_.tracker_sample(self));
    }
    (void)rng;
    return result;
  }

  std::optional<PeerId> sample(PeerId self, SimTime now,
                               util::Rng& /*rng*/) override {
    if (!service_.tracker_available(now)) {
      ++counters_.tracker_failures;
      return std::nullopt;
    }
    ++counters_.tracker_queries;
    return host_.tracker_sample(self);
  }

 private:
  const DiscoveryService& service_;
  DiscoveryHost& host_;
  DiscoveryCounters& counters_;
};

class DhtBackend final : public DiscoveryBackend {
 public:
  DhtBackend(const DhtParams& params, DiscoveryHost& host,
             DiscoveryCounters& counters, std::uint64_t seed)
      : params_(params), host_(host), counters_(counters), seed_(seed) {
    // Global id index: the oracle standing in for every remote node's
    // routing table. Sorted by node id so closest-to-target queries
    // are a window scan around the insertion point.
    const auto& pop = host_.population();
    index_.reserve(pop.size());
    for (PeerId id = 0; id < pop.size(); ++id) {
      index_.push_back({dht_node_id(seed_, id), id});
    }
    std::sort(index_.begin(), index_.end());
  }

  [[nodiscard]] DiscoveryBackendKind kind() const override {
    return DiscoveryBackendKind::kDht;
  }

  JoinResult join(PeerId self, std::size_t want, SimTime now,
                  util::Rng& rng) override {
    ++counters_.dht_lookups;
    RoutingTable& table = table_for(self);
    seed_table(self, table);

    // Random lookup target: joins land near the swarm key's
    // neighbourhood, refreshes exercise a random bucket — both reduce
    // to "walk toward a uniform id".
    const NodeId target = static_cast<NodeId>(rng.next_u64() >> 32);
    JoinResult result;
    std::unordered_set<PeerId> queried{self};
    std::size_t answered = 0;
    for (int hop = 0; hop < params_.max_hops; ++hop) {
      const auto next = closest_unqueried(table, target, queried);
      if (!next) break;  // shortlist exhausted
      queried.insert(*next);
      ++counters_.dht_hops;
      if (!host_.peer_reachable(*next, now)) {
        // Liveness failure: pay the per-hop timeout, evict, move on to
        // the next-closest alternate (the hop budget bounds the walk).
        result.latency += params_.hop_timeout;
        table.evict(*next);
        ++counters_.dht_hop_timeouts;
        ++counters_.dht_evictions;
        continue;
      }
      result.latency += host_.round_trip(self, *next);
      ++answered;
      // The queried node answers with its k closest to the target —
      // oracle-served, since background nodes keep no real tables.
      for (const PeerId neighbour : oracle_closest(target, self)) {
        table.insert(dht_node_id(seed_, neighbour), neighbour);
      }
      if (answered >= want) break;
    }
    for (const PeerId peer : table.closest(target, want)) {
      if (peer != self &&
          std::find(result.peers.begin(), result.peers.end(), peer) ==
              result.peers.end()) {
        result.peers.push_back(peer);
      }
    }
    result.ok = answered > 0 && !result.peers.empty();
    return result;
  }

  std::optional<PeerId> sample(PeerId self, SimTime /*now*/,
                               util::Rng& rng) override {
    RoutingTable& table = table_for(self);
    for (int attempt = 0; attempt < 4; ++attempt) {
      const auto pick = table.sample(rng);
      if (!pick) return std::nullopt;
      if (*pick != self) return pick;
    }
    return std::nullopt;
  }

  void contact_result(PeerId self, PeerId peer, bool ok) override {
    if (ok) return;
    table_for(self).evict(peer);
    ++counters_.dht_evictions;
  }

 private:
  RoutingTable& table_for(PeerId self) {
    auto it = tables_.find(self);
    if (it == tables_.end()) {
      it = tables_
               .emplace(self,
                        RoutingTable{dht_node_id(seed_, self), params_.k})
               .first;
    }
    return it->second;
  }

  void seed_table(PeerId self, RoutingTable& table) {
    if (table.size() > 0) return;
    // Bootstrap nodes: the probe cloud (well-known stable hosts) plus
    // whatever the client already knew — its cached peer list.
    for (const PeerId id : host_.population().probe_ids()) {
      if (id != self) table.insert(dht_node_id(seed_, id), id);
    }
    for (const PeerId id : host_.known_peers(self)) {
      if (id != self) table.insert(dht_node_id(seed_, id), id);
    }
  }

  /// Closest not-yet-queried table member; nullopt when none remain.
  std::optional<PeerId> closest_unqueried(
      const RoutingTable& table, NodeId target,
      const std::unordered_set<PeerId>& queried) {
    // The range is closest()'s distance-sorted vector; `queried` only
    // sizes the request.
    // peerscope-lint: allow(nondeterministic-iteration)
    for (const PeerId peer : table.closest(target, queried.size() + 1)) {
      if (!queried.contains(peer)) return peer;
    }
    return std::nullopt;
  }

  /// The k globally-closest ids to `target` (excluding `self`): the
  /// answer a converged remote routing table would give.
  std::vector<PeerId> oracle_closest(NodeId target, PeerId self) {
    const auto at = std::lower_bound(
        index_.begin(), index_.end(), std::pair<NodeId, PeerId>{target, 0});
    // XOR distance is not monotone in sorted order, but the nearest
    // ids share high bits with the target, so a window around the
    // insertion point re-ranked by XOR is the standard approximation.
    const std::size_t window = static_cast<std::size_t>(params_.k) * 4;
    const std::size_t pos =
        static_cast<std::size_t>(std::distance(index_.begin(), at));
    const std::size_t lo = pos > window ? pos - window : 0;
    const std::size_t hi = std::min(index_.size(), pos + window);
    std::vector<std::pair<NodeId, PeerId>> span(
        index_.begin() + static_cast<std::ptrdiff_t>(lo),
        index_.begin() + static_cast<std::ptrdiff_t>(hi));
    std::sort(span.begin(), span.end(),
              [target](const auto& a, const auto& b) {
                const NodeId da = xor_distance(a.first, target);
                const NodeId db = xor_distance(b.first, target);
                return da != db ? da < db : a.second < b.second;
              });
    std::vector<PeerId> out;
    for (const auto& [id, peer] : span) {
      if (peer == self) continue;
      out.push_back(peer);
      if (out.size() >= static_cast<std::size_t>(params_.k)) break;
    }
    return out;
  }

  DhtParams params_;
  DiscoveryHost& host_;
  DiscoveryCounters& counters_;
  std::uint64_t seed_ = 0;
  std::vector<std::pair<NodeId, PeerId>> index_;
  std::unordered_map<PeerId, RoutingTable> tables_;
};

class GossipBackend final : public DiscoveryBackend {
 public:
  GossipBackend(const GossipParams& params, DiscoveryHost& host,
                DiscoveryCounters& counters)
      : params_(params), host_(host), counters_(counters) {}

  [[nodiscard]] DiscoveryBackendKind kind() const override {
    return DiscoveryBackendKind::kGossip;
  }

  JoinResult join(PeerId self, std::size_t want, SimTime now,
                  util::Rng& rng) override {
    GossipView& view = view_for(self);
    if (view.empty()) seed_view(self, view, rng);
    ++counters_.gossip_exchanges;

    JoinResult result;
    std::size_t alive = 0;
    for (const PeerId target :
         view.sample(rng, static_cast<std::size_t>(params_.fanout))) {
      if (!host_.peer_reachable(target, now)) {
        view.erase(target);  // dead entries age out of the view
        continue;
      }
      ++alive;
      // Exchanges run in parallel; the round's latency is the slowest.
      result.latency =
          std::max(result.latency, host_.round_trip(self, target));
      for (const PeerId traded : pull_from(target, self, rng)) {
        if (traded == self) continue;
        view.add(traded, rng);
        if (result.peers.size() < want &&
            std::find(result.peers.begin(), result.peers.end(), traded) ==
                result.peers.end()) {
          result.peers.push_back(traded);
        }
      }
    }

    auto& failed = failed_rounds_[self];
    if (alive == 0) {
      ++failed;
      if (failed >= params_.partition_after) {
        // Partition detected: every exchange target is dead. Heal by
        // reseeding from the bootstrap set, as a client re-reading its
        // rendezvous cache would.
        ++counters_.gossip_partitions;
        PEERSCOPE_TRACE_INSTANT("p2p.discovery.partition");
        failed = 0;
        seed_view(self, view, rng);
      }
    } else {
      failed = 0;
    }
    result.ok = alive > 0 && !result.peers.empty();
    return result;
  }

  std::optional<PeerId> sample(PeerId self, SimTime /*now*/,
                               util::Rng& rng) override {
    GossipView& view = view_for(self);
    if (view.empty()) return std::nullopt;
    const auto picks = view.sample(rng, 1);
    if (picks.empty() || picks.front() == self) return std::nullopt;
    return picks.front();
  }

  void contact_result(PeerId self, PeerId peer, bool ok) override {
    if (!ok) view_for(self).erase(peer);
  }

 private:
  GossipView& view_for(PeerId self) {
    auto it = views_.find(self);
    if (it == views_.end()) {
      it = views_
               .emplace(self, GossipView{static_cast<std::size_t>(
                                  params_.view_size)})
               .first;
    }
    return it->second;
  }

  void seed_view(PeerId self, GossipView& view, util::Rng& rng) {
    for (const PeerId id : host_.population().probe_ids()) {
      if (id != self) view.add(id, rng);
    }
    for (const PeerId id : host_.known_peers(self)) {
      if (id != self) view.add(id, rng);
    }
  }

  /// The partner's half of a push-pull exchange. Probe partners share
  /// their real views; background partners — whose membership state is
  /// not modelled individually — answer with a population sample.
  std::vector<PeerId> pull_from(PeerId target, PeerId self,
                                util::Rng& rng) {
    const auto n = static_cast<std::size_t>(params_.exchange_size);
    if (const auto it = views_.find(target); it != views_.end()) {
      return it->second.sample(rng, n);
    }
    std::vector<PeerId> out;
    out.reserve(n);
    const std::size_t pop = host_.population().size();
    for (std::size_t i = 0; i < n; ++i) {
      const auto pick = static_cast<PeerId>(rng.below(pop));
      if (pick != self && pick != target) out.push_back(pick);
    }
    return out;
  }

  GossipParams params_;
  DiscoveryHost& host_;
  DiscoveryCounters& counters_;
  std::unordered_map<PeerId, GossipView> views_;
  std::unordered_map<PeerId, int> failed_rounds_;
};

}  // namespace

// ---------------------------------------------------------------------
// Service

DiscoveryService::DiscoveryService(const DiscoverySpec& spec,
                                   DiscoveryHost& host, std::uint64_t seed)
    : spec_(spec), host_(host), seed_(seed) {
  flap_spec_.outage_per_s = spec_.tracker_flap_per_s;
  flap_spec_.outage_duration = spec_.tracker_flap_duration;
  primary_ = make_backend(spec_.primary);
  if (spec_.fallback != DiscoveryBackendKind::kNone &&
      spec_.fallback != spec_.primary) {
    fallback_ = make_backend(spec_.fallback);
  }
}

DiscoveryService::~DiscoveryService() = default;

std::unique_ptr<DiscoveryBackend> DiscoveryService::make_backend(
    DiscoveryBackendKind kind) {
  switch (kind) {
    // Backend factories run at join/failover time, not per event.
    case DiscoveryBackendKind::kTracker:
      // peerscope-lint: allow(engine-hot-path)
      return std::make_unique<TrackerBackend>(*this, host_, counters_);
    case DiscoveryBackendKind::kDht:
      // peerscope-lint: allow(engine-hot-path)
      return std::make_unique<DhtBackend>(spec_.dht, host_, counters_,
                                          seed_);
    case DiscoveryBackendKind::kGossip:
      // peerscope-lint: allow(engine-hot-path)
      return std::make_unique<GossipBackend>(spec_.gossip, host_, counters_);
    case DiscoveryBackendKind::kNone:
      break;
  }
  return nullptr;
}

bool DiscoveryService::tracker_available(SimTime now) const {
  if (spec_.tracker_outage_duration > SimTime::zero() &&
      now >= spec_.tracker_outage_start &&
      now < spec_.tracker_outage_start + spec_.tracker_outage_duration) {
    return false;
  }
  if (spec_.tracker_flap_per_s > 0.0 &&
      sim::in_outage(flap_spec_, 0x7e4c4e8ULL ^ seed_, now)) {
    return false;
  }
  return true;
}

DiscoveryBackend* DiscoveryService::active_backend(
    const ProbeJoinState& st) {
  return st.on_fallback && fallback_ ? fallback_.get() : primary_.get();
}

void DiscoveryService::begin_join(PeerId self, SimTime now) {
  auto& st = states_[self];
  if (st.satisfied) {
    st.satisfied = false;
    st.started = now;
  }
}

JoinResult DiscoveryService::join_round(PeerId self, std::size_t want,
                                        SimTime now, util::Rng& rng) {
  auto& st = states_[self];
  st.pending = true;

  // Recovery probe: a failed-over probe periodically retries the
  // primary; one success moves it back.
  if (st.on_fallback && now >= st.next_primary_probe && primary_) {
    JoinResult probe = primary_->join(self, want, now, rng);
    if (probe.ok) {
      st.on_fallback = false;
      st.primary_failures = 0;
      ++counters_.recoveries;
      PEERSCOPE_TRACE_INSTANT("p2p.discovery.recovered");
      schedule_maintenance(st, now);
      return probe;
    }
    st.next_primary_probe = now + spec_.primary_retry;
  }

  DiscoveryBackend* backend = active_backend(st);
  if (backend == nullptr) return {};
  JoinResult result = backend->join(self, want, now, rng);

  if (result.ok) {
    if (!st.on_fallback) st.primary_failures = 0;
  } else if (!st.on_fallback) {
    ++st.primary_failures;
    if (fallback_ && st.primary_failures >= spec_.failover_after) {
      // Failover: the primary is gone for this probe; switch and run
      // the fallback's join in the same round so the swarm never
      // stalls a full backoff on a decided outcome.
      st.on_fallback = true;
      st.next_primary_probe = now + spec_.primary_retry;
      ++counters_.failovers;
      PEERSCOPE_TRACE_INSTANT("p2p.discovery.failover");
      result = fallback_->join(self, want, now, rng);
    }
  }
  schedule_maintenance(st, now);
  return result;
}

void DiscoveryService::schedule_maintenance(ProbeJoinState& st,
                                            SimTime now) {
  const DiscoveryBackend* backend = active_backend(st);
  if (backend == nullptr) return;
  switch (backend->kind()) {
    case DiscoveryBackendKind::kDht:
      st.next_maintenance = now + spec_.dht.refresh_period;
      break;
    case DiscoveryBackendKind::kGossip:
      st.next_maintenance = now + spec_.gossip.period;
      break;
    default:
      st.next_maintenance = SimTime::max();  // tracker needs no upkeep
      break;
  }
}

void DiscoveryService::finish_join(PeerId self, SimTime now, bool ok) {
  auto& st = states_[self];
  st.pending = false;
  if (!ok) return;
  st.attempt = 0;
  ++counters_.joins_ok;
  if (!st.satisfied) {
    st.satisfied = true;
    rejoin_latencies_.push_back(now - st.started);
  }
}

bool DiscoveryService::join_pending(PeerId self) const {
  const auto it = states_.find(self);
  return it != states_.end() && it->second.pending;
}

SimTime DiscoveryService::next_join_backoff(PeerId self) {
  auto& st = states_[self];
  ++st.attempt;
  ++counters_.join_retries;
  std::int64_t backoff_ns = spec_.join_backoff.ns();
  for (int i = 1;
       i < st.attempt && backoff_ns < spec_.join_backoff_max.ns(); ++i) {
    backoff_ns *= 2;
  }
  backoff_ns = std::min(backoff_ns, spec_.join_backoff_max.ns());
  // The PR 1 jitter policy: deterministic 75–125% keyed on
  // (seed, peer, attempt) — co-failing probes spread out without
  // touching any shared RNG stream.
  util::SplitMix64 mix{seed_ ^ (static_cast<std::uint64_t>(self) << 32) ^
                       static_cast<std::uint64_t>(st.attempt)};
  const double jitter =
      0.75 + 0.5 * (static_cast<double>(mix.next() >> 11) * 0x1.0p-53);
  return SimTime::nanos(
      static_cast<std::int64_t>(static_cast<double>(backoff_ns) * jitter));
}

std::optional<PeerId> DiscoveryService::sample(PeerId self, SimTime now,
                                               util::Rng& rng) {
  auto& st = states_[self];
  DiscoveryBackend* backend = active_backend(st);
  if (backend == nullptr) return std::nullopt;
  return backend->sample(self, now, rng);
}

bool DiscoveryService::maintenance_due(PeerId self, SimTime now) const {
  const auto it = states_.find(self);
  return it != states_.end() && !it->second.pending &&
         now >= it->second.next_maintenance;
}

void DiscoveryService::contact_result(PeerId self, PeerId peer, bool ok) {
  auto& st = states_[self];
  if (DiscoveryBackend* backend = active_backend(st)) {
    backend->contact_result(self, peer, ok);
  }
}

std::size_t DiscoveryService::rejoins_missed(SimTime deadline,
                                             SimTime end) const {
  if (deadline <= SimTime::zero()) return 0;
  std::size_t missed = 0;
  for (const SimTime latency : rejoin_latencies_) {
    if (latency > deadline) ++missed;
  }
  // Pure count over the member set: order-independent.
  // peerscope-lint: allow(nondeterministic-iteration)
  for (const auto& [id, st] : states_) {
    if (!st.satisfied && end - st.started > deadline) ++missed;
  }
  return missed;
}

}  // namespace peerscope::p2p
