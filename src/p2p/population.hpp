// Swarm population: the NAPA-WINE probes plus the background audience.
//
// Builds every host taking part in an experiment — address, AS,
// country, access link, router depth — and announces all prefixes in a
// NetRegistry so the analysis pipeline can do the same IP -> AS/CC
// lookups the paper performs against whois/geo databases.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/access.hpp"
#include "net/allocator.hpp"
#include "net/registry.hpp"
#include "net/topology.hpp"
#include "p2p/profile.hpp"

namespace peerscope::p2p {

using PeerId = std::uint32_t;

/// One NAPA-WINE vantage point, as a row of Table I describes it.
struct ProbeSpec {
  std::string site;        // "BME", "PoliTO", ...
  int host_number = 1;     // 1-based within the site
  net::AsId as;            // institution AS or home ISP AS
  /// Probes with the same (site, lan_group >= 0) share a /24 LAN;
  /// lan_group = -1 means a scattered (home) host.
  int lan_group = 0;
  net::AccessLink access;

  [[nodiscard]] std::string label() const {
    return site + "-" + std::to_string(host_number);
  }
};

/// One participating host (probe, background peer, or the source).
struct PeerInfo {
  PeerId id = 0;
  net::Endpoint ep;
  net::AccessLink access;
  bool is_probe = false;
  bool is_source = false;
  std::int32_t probe_index = -1;  // into Population::probe_specs()
  /// Background peers have the stream at source-time + lag seconds
  /// (initial draw; the swarm redraws per lag epoch with `lag_scale`).
  double lag_s = 0.0;
  /// Class multiplier applied to every lag draw for this peer.
  double lag_scale = 1.0;
};

class Population {
 public:
  /// Deterministic construction from a finalized topology, the
  /// profile's population spec, and the probe list. The same inputs
  /// and seed always yield the same peers and addresses.
  [[nodiscard]] static Population build(const net::AsTopology& topo,
                                        const PopulationSpec& spec,
                                        std::span<const ProbeSpec> probes,
                                        std::uint64_t seed);

  [[nodiscard]] const std::vector<PeerInfo>& peers() const { return peers_; }
  [[nodiscard]] const PeerInfo& peer(PeerId id) const { return peers_[id]; }
  [[nodiscard]] std::size_t size() const { return peers_.size(); }

  [[nodiscard]] std::span<const PeerId> probe_ids() const {
    return probe_ids_;
  }
  [[nodiscard]] const std::vector<ProbeSpec>& probe_specs() const {
    return probe_specs_;
  }
  [[nodiscard]] PeerId source() const { return source_; }

  [[nodiscard]] const net::NetRegistry& registry() const { return registry_; }

  /// Peers homed in a given AS (probes included); empty if none.
  [[nodiscard]] std::span<const PeerId> peers_in_as(net::AsId as) const;

  [[nodiscard]] bool is_probe_addr(net::Ipv4Addr addr) const {
    return probe_addrs_.contains(addr);
  }
  /// The probe address set W of the paper's framework.
  [[nodiscard]] const std::unordered_set<net::Ipv4Addr>& probe_addrs() const {
    return probe_addrs_;
  }

 private:
  Population() : registry_(), allocator_(registry_) {}

  net::NetRegistry registry_;
  net::AddressAllocator allocator_;
  std::vector<PeerInfo> peers_;
  std::vector<PeerId> probe_ids_;
  std::vector<ProbeSpec> probe_specs_;
  std::unordered_map<net::AsId, std::vector<PeerId>> by_as_;
  std::unordered_set<net::Ipv4Addr> probe_addrs_;
  PeerId source_ = 0;
  std::vector<PeerId> empty_;
};

/// Builds the 44-probe testbed of Table I against the reference
/// topology's AS numbering (exp::Testbed wraps this with site-level
/// reporting; the raw list lives here so p2p has no dependency on exp).
[[nodiscard]] std::vector<ProbeSpec> table1_probes();

}  // namespace peerscope::p2p
