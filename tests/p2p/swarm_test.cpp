#include "p2p/swarm.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>

#include "support/flow_equal.hpp"

namespace peerscope::p2p {
namespace {

using util::SimTime;

const net::AsTopology& topo() {
  static const net::AsTopology t = net::make_reference_topology();
  return t;
}

// A small, fast profile: full protocol, tiny swarm.
SystemProfile tiny_profile() {
  SystemProfile p = SystemProfile::tvants();
  p.name = "Tiny";
  p.population.background_peers = 120;
  return p;
}

SwarmConfig tiny_config(std::uint64_t seed = 1,
                        SimTime duration = SimTime::seconds(30)) {
  SwarmConfig cfg;
  cfg.profile = tiny_profile();
  cfg.seed = seed;
  cfg.duration = duration;
  return cfg;
}

TEST(Swarm, RunsAndDeliversStream) {
  const auto probes = table1_probes();
  Swarm swarm{topo(), probes, tiny_config()};
  swarm.run();
  EXPECT_GT(swarm.counters().chunks_delivered, 1000u);
  EXPECT_GT(swarm.counters().contacts, 100u);
}

TEST(Swarm, ProbesReceiveRoughlyStreamRate) {
  const auto probes = table1_probes();
  Swarm swarm{topo(), probes, tiny_config()};
  swarm.run();
  // Every probe's RX should be in the vicinity of the 384 kb/s video
  // rate plus signaling (wide tolerance: short run, staggered joins).
  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    const double kbps =
        static_cast<double>(swarm.sink(i).flows().total_rx_bytes()) * 8.0 /
        swarm.duration().seconds() / 1e3;
    EXPECT_GT(kbps, 250.0) << "probe " << i;
    EXPECT_LT(kbps, 900.0) << "probe " << i;
  }
}

TEST(Swarm, DeterministicForSameSeed) {
  const auto probes = table1_probes();
  Swarm a{topo(), probes, tiny_config(7)};
  Swarm b{topo(), probes, tiny_config(7)};
  a.run();
  b.run();
  ASSERT_EQ(a.probe_count(), b.probe_count());
  EXPECT_EQ(a.counters().chunks_delivered, b.counters().chunks_delivered);
  EXPECT_EQ(a.counters().chunks_uploaded, b.counters().chunks_uploaded);
  for (std::size_t i = 0; i < a.probe_count(); ++i) {
    EXPECT_EQ(a.sink(i).flows().total_rx_bytes(),
              b.sink(i).flows().total_rx_bytes());
    EXPECT_EQ(a.sink(i).flows().total_tx_bytes(),
              b.sink(i).flows().total_tx_bytes());
    EXPECT_EQ(a.sink(i).flows().flow_count(), b.sink(i).flows().flow_count());
  }
}

TEST(Swarm, DifferentSeedsDiverge) {
  const auto probes = table1_probes();
  Swarm a{topo(), probes, tiny_config(7)};
  Swarm b{topo(), probes, tiny_config(8)};
  a.run();
  b.run();
  EXPECT_NE(a.sink(0).flows().total_rx_bytes(),
            b.sink(0).flows().total_rx_bytes());
}

TEST(Swarm, RunTwiceThrows) {
  const auto probes = table1_probes();
  Swarm swarm{topo(), probes, tiny_config()};
  swarm.run();
  EXPECT_THROW(swarm.run(), std::logic_error);
}

TEST(Swarm, ProbesUploadToRequesters) {
  const auto probes = table1_probes();
  Swarm swarm{topo(), probes, tiny_config()};
  swarm.run();
  EXPECT_GT(swarm.counters().chunks_uploaded, 100u);
  std::uint64_t tx_total = 0;
  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    tx_total += swarm.sink(i).flows().total_tx_bytes();
  }
  EXPECT_GT(tx_total, 0u);
}

TEST(Swarm, ProbesExchangeWithEachOther) {
  const auto probes = table1_probes();
  Swarm swarm{topo(), probes, tiny_config()};
  swarm.run();
  const auto& pop = swarm.population();
  std::uint64_t probe_to_probe_bytes = 0;
  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    for (const auto& [remote, flow] : swarm.sink(i).flows().flows()) {
      if (pop.is_probe_addr(remote)) {
        probe_to_probe_bytes += flow.rx_video_bytes;
      }
    }
  }
  EXPECT_GT(probe_to_probe_bytes, 0u);
}

TEST(Swarm, KeepRecordsStoresRawPackets) {
  // Online capture takes one FlowTable update per train; the stored
  // records are one per packet, in capture order. Replaying them one at
  // a time must give every field of every flow of every probe, and the
  // iteration order, on a clean run and on one whose trains carry
  // reordered and duplicated capture records. On the clean run the
  // offline rebuild, which sorts by time, agrees too. With reordering
  // it need not: a reordered record stamped after the next train from
  // the same remote began is a negative gap online and a sample once
  // sorted.
  const auto probes = table1_probes();
  for (const bool artifacts : {false, true}) {
    SCOPED_TRACE(artifacts ? "reorder + duplicate" : "clean");
    SwarmConfig cfg = tiny_config(3, SimTime::seconds(10));
    cfg.keep_records = true;
    if (artifacts) {
      cfg.impairment.reorder_rate = 0.05;
      cfg.impairment.duplicate_rate = 0.05;
    }
    Swarm swarm{topo(), probes, cfg};
    swarm.run();
    EXPECT_FALSE(swarm.sink(0).records().empty());
    for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
      SCOPED_TRACE("probe " + std::to_string(i));
      const trace::ProbeSink& sink = swarm.sink(i);
      trace::FlowTable replay{sink.probe()};
      for (const trace::PacketRecord& record : sink.records()) {
        replay.add(record);
      }
      test::expect_same_flows(replay, sink.flows());
      test::expect_same_order(replay, sink.flows());
      if (artifacts) continue;
      test::expect_same_flows(
          trace::FlowTable::from_records(sink.probe(), sink.records()),
          sink.flows());
    }
  }
}

// Partners leave the set every way they can: worst and random drops
// (every run), blacklisting after bursty-loss timeouts, probe crashes
// and the flash crowd's zap. Background churn, DHT discovery with a
// gossip fallback and the NAT matrix ride along.
SwarmConfig every_exit_config() {
  SwarmConfig cfg = tiny_config(5, SimTime::seconds(60));
  cfg.keep_records = true;
  cfg.churn.probe_session_s = 6.0;
  cfg.churn.probe_downtime_s = 1.0;
  cfg.churn.bg_session_s = 20.0;
  cfg.churn.bg_downtime_s = 5.0;
  cfg.churn.blacklist_after = 2;
  cfg.impairment.loss_rate = 0.3;
  cfg.impairment.loss_burst = 8.0;
  cfg.discovery.primary = DiscoveryBackendKind::kDht;
  cfg.discovery.fallback = DiscoveryBackendKind::kGossip;
  cfg.discovery.nat.enabled = true;
  cfg.discovery.flash_crowd_at = SimTime::seconds(20);
  cfg.discovery.flash_crowd_arrivals = 40;
  return cfg;
}

TEST(Swarm, EveryPartnerExitFlushesKeepalives) {
  // Keepalives are counted on the Partner and folded into the flows
  // when it leaves the set or the run ends, while their records are
  // stored at send time. A missed flush at any exit leaves the online
  // table short of the per-record replay.
  const auto probes = table1_probes();
  Swarm swarm{topo(), probes, every_exit_config()};
  swarm.run();
  const auto& counters = swarm.counters();
  EXPECT_GT(counters.probe_crashes, 0u);
  EXPECT_GT(counters.partners_blacklisted, 0u);
  EXPECT_GT(counters.discovery.flash_arrivals, 0u);
  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    SCOPED_TRACE("probe " + std::to_string(i));
    const trace::ProbeSink& sink = swarm.sink(i);
    trace::FlowTable replay{sink.probe()};
    for (const trace::PacketRecord& record : sink.records()) {
      replay.add(record);
    }
    test::expect_same_flows(replay, sink.flows());
    test::expect_same_order(replay, sink.flows());
  }
}

TEST(Swarm, EveryRxPacketOfAFlowCarriesOneTtl) {
  // The precondition of the counted keepalive update: every RX capture
  // on a flow carries the TTL of the one path from that remote to the
  // probe, so the flow's Misra–Gries sketch has at most one live slot,
  // holding every RX packet.
  const auto probes = table1_probes();
  for (const bool exits : {false, true}) {
    SCOPED_TRACE(exits ? "every exit" : "clean");
    const SwarmConfig cfg =
        exits ? every_exit_config() : tiny_config(5, SimTime::seconds(60));
    Swarm swarm{topo(), probes, cfg};
    swarm.run();
    std::size_t flows = 0;
    for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
      for (const auto& [remote, flow] : swarm.sink(i).flows().flows()) {
        SCOPED_TRACE("probe " + std::to_string(i) + " remote " +
                     remote.to_string());
        ++flows;
        int live = 0;
        std::int64_t held = 0;
        for (const std::int32_t count : flow.ttl_counts) {
          if (count > 0) {
            ++live;
            held += count;
          }
        }
        EXPECT_LE(live, 1);
        EXPECT_EQ(static_cast<std::uint64_t>(held), flow.rx_pkts);
      }
    }
    EXPECT_GT(flows, 1000u);
  }
}

TEST(Swarm, RecordsHaveValidTimestampsAndTtls) {
  const auto probes = table1_probes();
  SwarmConfig cfg = tiny_config(3, SimTime::seconds(10));
  cfg.keep_records = true;
  Swarm swarm{topo(), probes, cfg};
  swarm.run();
  for (const auto& record : swarm.sink(5).records()) {
    EXPECT_GE(record.ts, SimTime::zero());
    EXPECT_GE(record.ttl, 1);
    EXPECT_LE(record.ttl, sim::kInitialTtl);
    EXPECT_GT(record.bytes, 0);
  }
}

TEST(Swarm, NoTrafficBeyondDurationPlusDrain) {
  const auto probes = table1_probes();
  SwarmConfig cfg = tiny_config(4, SimTime::seconds(10));
  cfg.keep_records = true;
  Swarm swarm{topo(), probes, cfg};
  swarm.run();
  // Trains issued before the horizon may finish shortly after it, but
  // nothing should be stamped far beyond (a chunk takes < 2 s even on
  // slow links; delays < 0.5 s).
  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    for (const auto& record : swarm.sink(i).records()) {
      EXPECT_LT(record.ts, cfg.duration + SimTime::seconds(30));
    }
  }
}

TEST(Swarm, DuplicateRateIsLow) {
  const auto probes = table1_probes();
  Swarm swarm{topo(), probes, tiny_config()};
  swarm.run();
  const auto& counters = swarm.counters();
  EXPECT_LT(counters.chunks_duplicate,
            counters.chunks_delivered / 10 + 10);
}

TEST(Swarm, SubsetOfProbesWorks) {
  const auto all = table1_probes();
  const std::span<const ProbeSpec> first_five{all.data(), 5};
  Swarm swarm{topo(), first_five, tiny_config(5, SimTime::seconds(15))};
  swarm.run();
  EXPECT_EQ(swarm.probe_count(), 5u);
  EXPECT_GT(swarm.counters().chunks_delivered, 50u);
}

TEST(Swarm, FirewalledProbeAttractsFewerRequesters) {
  // ENST 1-4 are firewalled LAN hosts; BME 1-4 are open LAN hosts.
  // Over the run, open probes should serve more upload.
  const auto probes = table1_probes();
  SwarmConfig cfg = tiny_config(11, SimTime::seconds(40));
  cfg.profile.upload.requester_arrival_per_s = 1.0;
  Swarm swarm{topo(), probes, cfg};
  swarm.run();

  auto tx_of_site = [&](const std::string& site) {
    std::uint64_t total = 0;
    int hosts = 0;
    const auto& specs = swarm.population().probe_specs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].site == site &&
          specs[i].access.kind == net::AccessKind::kLan) {
        total += swarm.sink(i).flows().total_tx_bytes();
        ++hosts;
      }
    }
    return static_cast<double>(total) / hosts;
  };
  EXPECT_GT(tx_of_site("BME"), tx_of_site("ENST"));
}

}  // namespace
}  // namespace peerscope::p2p
