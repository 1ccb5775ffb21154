#include "p2p/population.hpp"

#include <map>
#include <stdexcept>
#include <tuple>

#include "util/rng.hpp"

namespace peerscope::p2p {

using net::AccessLink;
using net::AsId;

std::vector<ProbeSpec> table1_probes() {
  using namespace net::refas;
  std::vector<ProbeSpec> out;

  auto lan_hosts = [&out](const std::string& site, AsId as, int first,
                          int last, int lan_group, AccessLink access) {
    for (int h = first; h <= last; ++h) {
      out.push_back({site, h, as, lan_group, access});
    }
  };
  auto home_host = [&out](const std::string& site, int number, AsId as,
                          int lan_group, AccessLink access) {
    out.push_back({site, number, as, lan_group, access});
  };

  const AsId home_bme{kHomeIspFirst.value() + 0};
  const AsId home_polito_a{kHomeIspFirst.value() + 1};
  const AsId home_polito_b{kHomeIspFirst.value() + 2};
  const AsId home_enst{kHomeIspFirst.value() + 3};
  const AsId home_unitn{kHomeIspFirst.value() + 4};
  const AsId home_wut{kHomeIspFirst.value() + 5};

  // Table I, row by row. The printed table sums to 46 hosts (39
  // institution + 7 home) although the paper's text says 44/37; we
  // reproduce the table as published (see EXPERIMENTS.md note).
  lan_hosts("BME", kAs1, 1, 4, 0, AccessLink::lan100());
  home_host("BME", 5, home_bme, -1, AccessLink::dsl(6, 0.512));

  lan_hosts("PoliTO", kAs2, 1, 9, 0, AccessLink::lan100());
  home_host("PoliTO", 10, home_polito_a, -1, AccessLink::dsl(4, 0.384));
  // Hosts 11-12 share one NATed home LAN on the same ISP.
  home_host("PoliTO", 11, home_polito_b, 2,
            AccessLink::dsl(8, 0.384, /*nat=*/true));
  home_host("PoliTO", 12, home_polito_b, 2,
            AccessLink::dsl(8, 0.384, /*nat=*/true));

  lan_hosts("MT", kAs3, 1, 4, 0, AccessLink::lan100());

  lan_hosts("FFT", kAs5, 1, 3, 0, AccessLink::lan100());

  {
    AccessLink fw = AccessLink::lan100();
    fw.firewall = true;
    lan_hosts("ENST", kAs4, 1, 4, 0, fw);
  }
  home_host("ENST", 5, home_enst, -1,
            AccessLink::dsl(22, 1.8, /*nat=*/true));

  lan_hosts("UniTN", kAs2, 1, 5, 0, AccessLink::lan100());
  {
    AccessLink nat = AccessLink::lan100();
    nat.nat = true;
    lan_hosts("UniTN", kAs2, 6, 7, 1, nat);
  }
  home_host("UniTN", 8, home_unitn, -1,
            AccessLink::dsl(2.5, 0.384, /*nat=*/true, /*firewall=*/true));

  lan_hosts("WUT", kAs6, 1, 8, 0, AccessLink::lan100());
  home_host("WUT", 9, home_wut, -1, AccessLink::catv(6, 0.512));

  return out;
}

namespace {

// Background high-bandwidth access variants: campus/fiber links, all
// with uplink > 10 Mb/s so the ground-truth class is unambiguous.
AccessLink random_highbw_access(util::Rng& rng) {
  switch (rng.below(3)) {
    case 0:
      return AccessLink::lan100();
    case 1:
      return {net::AccessKind::kLan, 100'000'000, 20'000'000,
              100'000'000, false, false};
    default:
      return {net::AccessKind::kLan, 20'000'000, 20'000'000, 20'000'000,
              false, false};
  }
}

// Low-bandwidth variants: the DSL/CATV plans of the era, uplink well
// below 10 Mb/s.
AccessLink random_lowbw_access(util::Rng& rng) {
  switch (rng.below(5)) {
    case 0:
      return AccessLink::dsl(2, 0.256, rng.chance(0.5));
    case 1:
      return AccessLink::dsl(4, 0.384, rng.chance(0.5));
    case 2:
      return AccessLink::dsl(8, 0.512, rng.chance(0.5));
    case 3:
      return AccessLink::dsl(16, 1.0, rng.chance(0.5));
    default:
      return AccessLink::catv(6, 0.512, rng.chance(0.3));
  }
}

}  // namespace

Population Population::build(const net::AsTopology& topo,
                             const PopulationSpec& spec,
                             std::span<const ProbeSpec> probes,
                             std::uint64_t seed) {
  using namespace net::refas;
  Population pop;
  util::Rng rng{seed};

  for (const AsId as : topo.as_ids()) {
    pop.allocator_.register_as(as, topo.country_of_as(as));
  }
  // Probes, the source and the audience: sized once, never regrown.
  pop.peers_.reserve(probes.size() + 1 + spec.background_peers);

  auto add_peer = [&pop](PeerInfo info) -> PeerId {
    info.id = static_cast<PeerId>(pop.peers_.size());
    pop.by_as_[info.ep.as].push_back(info.id);
    pop.peers_.push_back(info);
    return info.id;
  };

  // --- Probes. LAN groups share a carved /24; home hosts scatter.
  std::map<std::tuple<std::string, std::uint32_t, int>, net::Ipv4Prefix> lans;
  for (const ProbeSpec& ps : probes) {
    net::Ipv4Addr addr;
    if (ps.lan_group >= 0) {
      const auto key = std::make_tuple(ps.site, ps.as.value(), ps.lan_group);
      auto it = lans.find(key);
      if (it == lans.end()) {
        it = lans.emplace(key, pop.allocator_.new_subnet(ps.as)).first;
      }
      addr = pop.allocator_.new_host_in_subnet(it->second);
    } else {
      addr = pop.allocator_.new_host(ps.as);
    }
    PeerInfo info;
    info.ep = {addr, ps.as, topo.country_of_as(ps.as),
               topo.region_of_as(ps.as),
               ps.access.kind == net::AccessKind::kLan ? 2 : 4};
    info.access = ps.access;
    info.is_probe = true;
    info.probe_index = static_cast<std::int32_t>(pop.probe_specs_.size());
    const PeerId id = add_peer(info);
    pop.probe_ids_.push_back(id);
    pop.probe_specs_.push_back(ps);
    pop.probe_addrs_.insert(addr);
  }

  // --- The source: a well-provisioned host in China feeding the swarm.
  {
    const AsId as{kCnIspFirst.value()};
    PeerInfo info;
    info.ep = {pop.allocator_.new_host(as), as, topo.country_of_as(as),
               topo.region_of_as(as), 2};
    info.access = {net::AccessKind::kLan, 100'000'000, 100'000'000,
                   100'000'000, false, false};
    info.is_source = true;
    info.lag_s = 0.0;
    pop.source_ = add_peer(info);
  }

  // --- Background audience.
  std::vector<AsId> cn_ases, row_ases, eu_eyeball_ases, inst_ases;
  for (std::uint32_t i = 0; i < kCnIspCount; ++i) {
    cn_ases.push_back(AsId{kCnIspFirst.value() + i});
  }
  for (std::uint32_t i = 0; i < kRowIspCount; ++i) {
    row_ases.push_back(AsId{kRowIspFirst.value() + i});
  }
  for (std::uint32_t i = 0; i < kEuIspCount; ++i) {
    eu_eyeball_ases.push_back(AsId{kEuIspFirst.value() + i});
  }
  inst_ases = {kAs1, kAs2, kAs3, kAs4, kAs5, kAs6};

  const double region_weights[3] = {spec.cn_fraction, spec.eu_fraction,
                                    spec.row_fraction};
  for (std::size_t i = 0; i < spec.background_peers; ++i) {
    const std::size_t bucket = rng.weighted_pick(region_weights);
    AsId as;
    double highbw_fraction;
    bool campus = false;
    if (bucket == 0) {
      as = cn_ases[rng.below(cn_ases.size())];
      highbw_fraction = spec.cn_highbw;
    } else if (bucket == 1) {
      if (rng.chance(spec.inst_as_fraction)) {
        as = inst_ases[rng.below(inst_ases.size())];
        // Institution-AS viewers sit on campus LANs almost by
        // definition — the same-AS peer pool is bandwidth-correlated.
        highbw_fraction = 0.85;
        campus = true;
      } else {
        as = eu_eyeball_ases[rng.below(eu_eyeball_ases.size())];
        highbw_fraction = spec.eu_highbw;
      }
    } else {
      as = row_ases[rng.below(row_ases.size())];
      highbw_fraction = spec.row_highbw;
    }

    PeerInfo info;
    const bool highbw = rng.chance(highbw_fraction);
    // Campus viewers sit directly on 100 Mb/s department LANs; other
    // high-bandwidth peers get the mixed fiber/ethernet plans.
    info.access = !highbw          ? random_lowbw_access(rng)
                  : campus         ? AccessLink::lan100()
                                   : random_highbw_access(rng);
    const int depth =
        spec.depth_shift +
        (info.access.kind == net::AccessKind::kLan
             ? static_cast<int>(2 + rng.below(2))    // 2-3
             : static_cast<int>(3 + rng.below(4)));  // 3-6
    info.ep = {pop.allocator_.new_host(as), as, topo.country_of_as(as),
               topo.region_of_as(as), depth};
    info.lag_scale = !highbw ? spec.lowbw_lag_scale
                     : campus ? spec.campus_lag_scale
                              : spec.highbw_lag_scale;
    info.lag_s = spec.lag_floor_s +
                 rng.lognormal(spec.lag_mu, spec.lag_sigma) * info.lag_scale;
    add_peer(info);
  }

  return pop;
}

std::span<const PeerId> Population::peers_in_as(net::AsId as) const {
  if (const auto it = by_as_.find(as); it != by_as_.end()) {
    return it->second;
  }
  return empty_;
}

}  // namespace peerscope::p2p
