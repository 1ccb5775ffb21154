#include "p2p/population.hpp"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "net/prefix.hpp"

namespace peerscope::p2p {
namespace {

const net::AsTopology& topo() {
  static const net::AsTopology t = net::make_reference_topology();
  return t;
}

PopulationSpec small_spec() {
  PopulationSpec spec;
  spec.background_peers = 400;
  return spec;
}

TEST(Table1Probes, HostAndSiteCounts) {
  const auto probes = table1_probes();
  // The published table enumerates 46 hosts over 7 sites (see
  // EXPERIMENTS.md for the 44-vs-46 discrepancy note).
  EXPECT_EQ(probes.size(), 46u);
  std::set<std::string> sites;
  for (const auto& p : probes) sites.insert(p.site);
  EXPECT_EQ(sites.size(), 7u);
}

TEST(Table1Probes, AccessMixMatchesTable) {
  const auto probes = table1_probes();
  int lan = 0, dsl = 0, catv = 0, nat = 0, fw = 0;
  for (const auto& p : probes) {
    switch (p.access.kind) {
      case net::AccessKind::kLan: ++lan; break;
      case net::AccessKind::kDsl: ++dsl; break;
      case net::AccessKind::kCatv: ++catv; break;
    }
    if (p.access.nat) ++nat;
    if (p.access.firewall) ++fw;
  }
  EXPECT_EQ(lan, 39);
  EXPECT_EQ(dsl, 6);
  EXPECT_EQ(catv, 1);
  EXPECT_EQ(nat, 6);   // PoliTO 11-12, ENST 5, UniTN 6-8
  EXPECT_EQ(fw, 5);    // ENST 1-4, UniTN 8
}

TEST(Table1Probes, PolitoAndUnitnShareAs2) {
  const auto probes = table1_probes();
  std::set<std::uint32_t> polito_as, unitn_as;
  for (const auto& p : probes) {
    if (p.site == "PoliTO" && p.access.kind == net::AccessKind::kLan) {
      polito_as.insert(p.as.value());
    }
    if (p.site == "UniTN" && p.access.kind == net::AccessKind::kLan) {
      unitn_as.insert(p.as.value());
    }
  }
  EXPECT_EQ(polito_as, (std::set<std::uint32_t>{2}));
  EXPECT_EQ(unitn_as, (std::set<std::uint32_t>{2}));
}

TEST(Population, DeterministicForSameSeed) {
  const auto probes = table1_probes();
  const Population a = Population::build(topo(), small_spec(), probes, 7);
  const Population b = Population::build(topo(), small_spec(), probes, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto id = static_cast<PeerId>(i);
    EXPECT_EQ(a.peer(id).ep.addr, b.peer(id).ep.addr);
    EXPECT_EQ(a.peer(id).access.up_bps, b.peer(id).access.up_bps);
    EXPECT_EQ(a.peer(id).lag_s, b.peer(id).lag_s);
  }
}

TEST(Population, DifferentSeedsDiffer) {
  const auto probes = table1_probes();
  const Population a = Population::build(topo(), small_spec(), probes, 7);
  const Population b = Population::build(topo(), small_spec(), probes, 8);
  int differing = 0;
  for (std::size_t i = probes.size() + 1; i < a.size(); ++i) {
    const auto id = static_cast<PeerId>(i);
    if (a.peer(id).ep.as != b.peer(id).ep.as) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(Population, SizeIsProbesPlusSourcePlusBackground) {
  const auto probes = table1_probes();
  const Population pop = Population::build(topo(), small_spec(), probes, 1);
  EXPECT_EQ(pop.size(), probes.size() + 1 + 400);
  EXPECT_EQ(pop.probe_ids().size(), probes.size());
  EXPECT_TRUE(pop.peer(pop.source()).is_source);
}

TEST(Population, ProbesOnSameLanShareSubnet) {
  const auto probes = table1_probes();
  const Population pop = Population::build(topo(), small_spec(), probes, 1);
  // BME hosts 1-4 (indices 0..3) share a /24; host 5 (home) does not.
  const auto& a = pop.peer(pop.probe_ids()[0]).ep.addr;
  const auto& b = pop.peer(pop.probe_ids()[3]).ep.addr;
  const auto& home = pop.peer(pop.probe_ids()[4]).ep.addr;
  EXPECT_TRUE(net::same_subnet24(a, b));
  EXPECT_FALSE(net::same_subnet24(a, home));
}

TEST(Population, PolitoAndUnitnLansDifferButShareAs) {
  const auto probes = table1_probes();
  const Population pop = Population::build(topo(), small_spec(), probes, 1);
  // PoliTO host 1 is probe index 5; UniTN host 1 is index 25.
  std::size_t polito = 0, unitn = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (probes[i].site == "PoliTO" && probes[i].host_number == 1) polito = i;
    if (probes[i].site == "UniTN" && probes[i].host_number == 1) unitn = i;
  }
  const auto& pa = pop.peer(pop.probe_ids()[polito]).ep;
  const auto& ua = pop.peer(pop.probe_ids()[unitn]).ep;
  EXPECT_EQ(pa.as, ua.as);
  EXPECT_FALSE(net::same_subnet24(pa.addr, ua.addr));
}

TEST(Population, AddressesAreUniqueAndResolvable) {
  const auto probes = table1_probes();
  const Population pop = Population::build(topo(), small_spec(), probes, 3);
  std::unordered_set<net::Ipv4Addr> seen;
  for (const auto& peer : pop.peers()) {
    EXPECT_TRUE(seen.insert(peer.ep.addr).second);
    EXPECT_EQ(pop.registry().as_of(peer.ep.addr), peer.ep.as);
    EXPECT_EQ(pop.registry().country_of(peer.ep.addr), peer.ep.country);
  }
}

TEST(Population, ProbeAddrSetMatchesProbes) {
  const auto probes = table1_probes();
  const Population pop = Population::build(topo(), small_spec(), probes, 3);
  EXPECT_EQ(pop.probe_addrs().size(), probes.size());
  for (const PeerId id : pop.probe_ids()) {
    EXPECT_TRUE(pop.is_probe_addr(pop.peer(id).ep.addr));
  }
  EXPECT_FALSE(pop.is_probe_addr(pop.peer(pop.source()).ep.addr));
}

TEST(Population, RegionMixApproximatesSpec) {
  const auto probes = table1_probes();
  PopulationSpec spec;
  spec.background_peers = 3000;
  const Population pop = Population::build(topo(), spec, probes, 5);
  int cn = 0, total = 0;
  for (const auto& peer : pop.peers()) {
    if (peer.is_probe || peer.is_source) continue;
    ++total;
    if (peer.ep.country == net::kChina) ++cn;
  }
  EXPECT_EQ(total, 3000);
  EXPECT_NEAR(static_cast<double>(cn) / total, spec.cn_fraction, 0.03);
}

TEST(Population, HighBandwidthMixApproximatesSpec) {
  const auto probes = table1_probes();
  PopulationSpec spec;
  spec.background_peers = 3000;
  spec.inst_as_fraction = 0.0;  // avoid the campus 0.85 override
  const Population pop = Population::build(topo(), spec, probes, 5);
  int hi = 0, cn = 0;
  for (const auto& peer : pop.peers()) {
    if (peer.is_probe || peer.is_source) continue;
    if (peer.ep.country != net::kChina) continue;
    ++cn;
    if (peer.access.is_high_bandwidth()) ++hi;
  }
  EXPECT_NEAR(static_cast<double>(hi) / cn, spec.cn_highbw, 0.05);
}

TEST(Population, BackgroundLagsArePositive) {
  const auto probes = table1_probes();
  const Population pop = Population::build(topo(), small_spec(), probes, 6);
  for (const auto& peer : pop.peers()) {
    if (peer.is_probe || peer.is_source) continue;
    EXPECT_GT(peer.lag_s, 0.0);
  }
}

TEST(Population, PeersInAsIndexIsConsistent) {
  const auto probes = table1_probes();
  const Population pop = Population::build(topo(), small_spec(), probes, 6);
  std::size_t indexed = 0;
  for (const net::AsId as : topo().as_ids()) {
    for (const PeerId id : pop.peers_in_as(as)) {
      EXPECT_EQ(pop.peer(id).ep.as, as);
      ++indexed;
    }
  }
  EXPECT_EQ(indexed, pop.size());
  EXPECT_TRUE(pop.peers_in_as(net::AsId{59999}).empty());
}

TEST(Population, InstitutionAsesContainBackgroundPeers) {
  const auto probes = table1_probes();
  PopulationSpec spec;
  spec.background_peers = 2000;
  spec.inst_as_fraction = 0.5;
  const Population pop = Population::build(topo(), spec, probes, 9);
  int inst_bg = 0;
  for (const auto& peer : pop.peers()) {
    if (peer.is_probe || peer.is_source) continue;
    if (peer.ep.as.value() >= 1 && peer.ep.as.value() <= 6) ++inst_bg;
  }
  // ~ 2000 * eu_fraction * 0.5; just require a healthy pool (the
  // non-NAPA same-AS peers the AS statistics need).
  EXPECT_GT(inst_bg, 30);
}

}  // namespace
}  // namespace peerscope::p2p
