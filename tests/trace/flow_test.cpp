#include "trace/flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "p2p/population.hpp"
#include "p2p/swarm.hpp"
#include "support/flow_equal.hpp"
#include "trace/sink.hpp"
#include "util/rng.hpp"

namespace peerscope::trace {
namespace {

using net::Ipv4Addr;
using util::SimTime;

const Ipv4Addr kProbe{10, 0, 0, 1};
const Ipv4Addr kPeerA{20, 0, 0, 1};
const Ipv4Addr kPeerB{20, 0, 0, 2};

PacketRecord video_rx(Ipv4Addr remote, std::int64_t ts_ns,
                      std::uint8_t ttl = 110, std::int32_t bytes = 1250) {
  return {SimTime{ts_ns}, remote, bytes, Direction::kRx,
          sim::PacketKind::kVideo, ttl};
}

PacketRecord sig_tx(Ipv4Addr remote, std::int64_t ts_ns,
                    std::int32_t bytes = 120) {
  return {SimTime{ts_ns}, remote, bytes, Direction::kTx,
          sim::PacketKind::kSignaling, 128};
}

TEST(FlowTable, AggregatesPerRemote) {
  FlowTable table{kProbe};
  table.add(video_rx(kPeerA, 1000));
  table.add(video_rx(kPeerA, 2000));
  table.add(sig_tx(kPeerA, 3000));
  table.add(video_rx(kPeerB, 1500));

  EXPECT_EQ(table.flow_count(), 2u);
  const FlowStats* a = table.find(kPeerA);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->rx_pkts, 2u);
  EXPECT_EQ(a->rx_bytes, 2500u);
  EXPECT_EQ(a->rx_video_pkts, 2u);
  EXPECT_EQ(a->tx_pkts, 1u);
  EXPECT_EQ(a->tx_bytes, 120u);
  EXPECT_EQ(a->tx_video_pkts, 0u);
}

TEST(FlowTable, MinIpgTracksConsecutiveVideoGaps) {
  FlowTable table{kProbe};
  table.add(video_rx(kPeerA, 1'000'000));
  table.add(video_rx(kPeerA, 1'500'000));   // gap 500 us
  table.add(video_rx(kPeerA, 9'000'000));   // gap 7.5 ms
  table.add(video_rx(kPeerA, 9'100'000));   // gap 100 us  <- min
  const FlowStats* a = table.find(kPeerA);
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->has_min_ipg());
  EXPECT_EQ(a->min_rx_video_ipg_ns, 100'000);
}

TEST(FlowTable, MinIpgUndefinedWithOneVideoPacket) {
  FlowTable table{kProbe};
  table.add(video_rx(kPeerA, 1000));
  const FlowStats* a = table.find(kPeerA);
  ASSERT_NE(a, nullptr);
  EXPECT_FALSE(a->has_min_ipg());
}

TEST(FlowTable, SignalingDoesNotAffectIpg) {
  FlowTable table{kProbe};
  table.add(video_rx(kPeerA, 1'000'000));
  PacketRecord sig = video_rx(kPeerA, 1'000'100);
  sig.kind = sim::PacketKind::kSignaling;
  table.add(sig);
  table.add(video_rx(kPeerA, 3'000'000));
  const FlowStats* a = table.find(kPeerA);
  EXPECT_EQ(a->min_rx_video_ipg_ns, 2'000'000);
}

TEST(FlowTable, IpgIsPerRemote) {
  FlowTable table{kProbe};
  table.add(video_rx(kPeerA, 1'000'000));
  table.add(video_rx(kPeerB, 1'000'050));
  table.add(video_rx(kPeerA, 2'000'000));
  EXPECT_EQ(table.find(kPeerA)->min_rx_video_ipg_ns, 1'000'000);
  EXPECT_FALSE(table.find(kPeerB)->has_min_ipg());
}

TEST(FlowTable, NegativeGapIsNoSampleButMovesTheLeftEdge) {
  // A reordered capture record steps back in time: its gap is not a
  // sample, and the next gap is measured from it.
  FlowTable table{kProbe};
  const std::vector<SimTime> train{SimTime{1000}, SimTime{3000}};
  table.add_run(kPeerA, Direction::kRx, sim::PacketKind::kVideo, 1250, 110,
                train);
  table.add(video_rx(kPeerA, 2000));  // gap -1000
  table.add(video_rx(kPeerA, 2500));  // gap 500 from 2000
  const FlowStats* a = table.find(kPeerA);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->rx_ipg_samples, 2u);
  EXPECT_EQ(a->min_rx_video_ipg_ns, 500);
  EXPECT_EQ(a->last_rx_video_ts, SimTime{2500});
}

TEST(FlowTable, TracksRxTtlAndTimestamps) {
  FlowTable table{kProbe};
  table.add(video_rx(kPeerA, 5000, 107));
  table.add(sig_tx(kPeerA, 9000));
  const FlowStats* a = table.find(kPeerA);
  EXPECT_TRUE(a->saw_rx);
  EXPECT_EQ(a->rx_ttl, 107);
  EXPECT_EQ(a->first_ts.ns(), 5000);
  EXPECT_EQ(a->last_ts.ns(), 9000);
}

TEST(FlowTable, TxOnlyFlowHasNoRxTtl) {
  FlowTable table{kProbe};
  table.add(sig_tx(kPeerA, 1000));
  EXPECT_FALSE(table.find(kPeerA)->saw_rx);
}

TEST(FlowTable, Totals) {
  FlowTable table{kProbe};
  table.add(video_rx(kPeerA, 1000));
  table.add(video_rx(kPeerB, 2000));
  table.add(sig_tx(kPeerA, 3000));
  EXPECT_EQ(table.total_rx_pkts(), 2u);
  EXPECT_EQ(table.total_rx_bytes(), 2500u);
  EXPECT_EQ(table.total_tx_pkts(), 1u);
  EXPECT_EQ(table.total_tx_bytes(), 120u);
}

/// One add_run() call: a run of packets sharing remote, direction,
/// kind, size and TTL.
struct PacketRun {
  Ipv4Addr remote;
  Direction dir = Direction::kRx;
  sim::PacketKind kind = sim::PacketKind::kVideo;
  std::int32_t bytes = 0;
  std::uint8_t ttl = 0;
  std::vector<SimTime> ts;
};

/// Random runs of 1-20 packets over three remotes. TTLs come from five
/// values, so all three Misra–Gries slots fill and a long run's
/// decrements free slots mid-run. With `step_back`, some runs start
/// before the previous run ended, giving negative gaps.
std::vector<PacketRun> random_runs(util::Rng& rng, bool step_back) {
  const Ipv4Addr remotes[] = {kPeerA, kPeerB, Ipv4Addr{20, 0, 0, 3}};
  const std::uint8_t ttls[] = {100, 101, 102, 103, 104};
  std::vector<PacketRun> runs;
  std::int64_t ts = 0;
  for (int i = 0; i < 1500; ++i) {
    PacketRun run;
    run.remote = remotes[rng.below(3)];
    run.dir = rng.chance(0.7) ? Direction::kRx : Direction::kTx;
    const bool video = rng.chance(0.8);
    run.kind = video ? sim::PacketKind::kVideo : sim::PacketKind::kSignaling;
    run.bytes = video ? 1250 : 120;
    // Skewed towards the first TTL so the mode is well defined.
    run.ttl = rng.chance(0.5) ? ttls[0] : ttls[rng.below(5)];
    if (step_back && rng.chance(0.2)) {
      ts -= static_cast<std::int64_t>(rng.below(2'000'000));
    }
    const auto length = 1 + rng.below(20);
    for (std::uint64_t k = 0; k < length; ++k) {
      ts += static_cast<std::int64_t>(rng.below(500'000)) + 1;
      run.ts.push_back(SimTime{ts});
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

/// The per-packet Misra–Gries update over RX TTLs, written out apart
/// from FlowTable: the reference the weighted update must match.
struct TtlSketch {
  std::array<std::uint8_t, 3> candidates{};
  std::array<std::int32_t, 3> counts{};

  void add(std::uint8_t ttl) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] > 0 && candidates[i] == ttl) {
        ++counts[i];
        return;
      }
    }
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) {
        candidates[i] = ttl;
        counts[i] = 1;
        return;
      }
    }
    for (auto& count : counts) --count;
  }
};

TEST(FlowTable, OfflineEqualsOnline) {
  // Property: runs fed through add_run leave every field, the totals
  // and the iteration order exactly as one add() per packet does, and
  // the TTL sketch as the per-packet reference does. On time-ordered
  // input, the shuffled records rebuilt by from_records (which sorts)
  // agree too.
  for (const bool step_back : {false, true}) {
    SCOPED_TRACE(step_back ? "runs step back" : "time-ordered runs");
    util::Rng rng{step_back ? 7u : 99u};
    FlowTable by_run{kProbe};
    FlowTable by_record{kProbe};
    std::unordered_map<Ipv4Addr, TtlSketch> sketches;
    std::vector<PacketRecord> records;
    for (const PacketRun& run : random_runs(rng, step_back)) {
      by_run.add_run(run.remote, run.dir, run.kind, run.bytes, run.ttl,
                     run.ts);
      for (const SimTime ts : run.ts) {
        records.push_back({ts, run.remote, run.bytes, run.dir, run.kind,
                           run.ttl});
        by_record.add(records.back());
        if (run.dir == Direction::kRx) sketches[run.remote].add(run.ttl);
      }
    }
    test::expect_same_flows(by_record, by_run);
    test::expect_same_order(by_record, by_run);
    for (const auto& [remote, sketch] : sketches) {
      const FlowStats* flow = by_run.find(remote);
      ASSERT_NE(flow, nullptr);
      EXPECT_EQ(flow->ttl_candidates, sketch.candidates);
      EXPECT_EQ(flow->ttl_counts, sketch.counts);
    }
    if (step_back) continue;

    std::shuffle(records.begin(), records.end(), rng);
    test::expect_same_flows(by_record,
                            FlowTable::from_records(kProbe, records));
  }
}

/// Swaps each pair of adjacent record_before ties in sorted `records`:
/// still sorted, with every tie in the other order.
void reverse_ties(std::vector<PacketRecord>& records) {
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    if (!record_before(records[i], records[i + 1])) {
      std::swap(records[i], records[i + 1]);
      ++i;
    }
  }
}

TEST(FlowTable, OfflineBuildOfSortedInputEqualsShuffledInput) {
  // Sorted input is walked in place, any other input is sorted first;
  // both give every field, the totals and the flows() order, and so
  // does sorted input with every tie reversed. The records are a swarm
  // capture with reordering and duplication on, plus ties (same stamp,
  // remote and direction) made by hand on its busiest remote: video
  // with signaling, and two video packets.
  p2p::SwarmConfig cfg;
  cfg.profile = p2p::SystemProfile::tvants();
  cfg.profile.population.background_peers = 120;
  cfg.seed = 3;
  cfg.duration = SimTime::seconds(10);
  cfg.keep_records = true;
  cfg.impairment.reorder_rate = 0.05;
  cfg.impairment.duplicate_rate = 0.05;
  const net::AsTopology topo = net::make_reference_topology();
  const auto probes = p2p::table1_probes();
  p2p::Swarm swarm{topo, probes, cfg};
  swarm.run();

  util::Rng rng{5};
  std::size_t ties = 0;
  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    SCOPED_TRACE("probe " + std::to_string(i));
    const ProbeSink& sink = swarm.sink(i);
    std::vector<PacketRecord> records = sink.records();
    const FlowStats* busy = nullptr;
    for (const auto& [remote, flow] : sink.flows().flows()) {
      if (busy == nullptr || flow.rx_video_pkts > busy->rx_video_pkts) {
        busy = &flow;
      }
    }
    ASSERT_NE(busy, nullptr);
    const std::int64_t end = busy->last_ts.ns();
    PacketRecord video = video_rx(busy->remote, end + 1'000, busy->rx_ttl);
    PacketRecord signaling = video;
    signaling.kind = sim::PacketKind::kSignaling;
    signaling.bytes = 120;
    records.push_back(video);
    records.push_back(signaling);
    video.ts = SimTime{end + 2'000};
    records.push_back(video);
    video.bytes = 1'000;
    records.push_back(video);

    std::sort(records.begin(), records.end(), record_before);
    std::vector<PacketRecord> reversed = records;
    reverse_ties(reversed);
    for (std::size_t k = 0; k + 1 < records.size(); ++k) {
      ties += record_before(records[k], records[k + 1]) ? 0 : 1;
    }
    std::vector<PacketRecord> shuffled = records;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);

    const FlowTable want = FlowTable::from_records(sink.probe(), shuffled);
    for (const auto* input : {&records, &reversed}) {
      const FlowTable got = FlowTable::from_records(sink.probe(), *input);
      test::expect_same_flows(want, got);
      test::expect_same_order(want, got);
    }

    // One out-of-order pair sends the input down the sorting path: two
    // RX video packets of one remote, which walked as given would make
    // a negative gap.
    std::vector<PacketRecord> one_swap = records;
    const auto consecutive_video = [](const PacketRecord& a,
                                      const PacketRecord& b) {
      return a.remote == b.remote && a.dir == Direction::kRx &&
             b.dir == Direction::kRx && a.kind == sim::PacketKind::kVideo &&
             b.kind == sim::PacketKind::kVideo && a.ts < b.ts;
    };
    const auto pair = std::adjacent_find(
        one_swap.begin() + static_cast<std::ptrdiff_t>(one_swap.size() / 2),
        one_swap.end(), consecutive_video);
    ASSERT_NE(pair, one_swap.end());
    std::iter_swap(pair, pair + 1);
    ASSERT_FALSE(std::is_sorted(one_swap.begin(), one_swap.end(),
                                record_before));
    const FlowTable got = FlowTable::from_records(sink.probe(), one_swap);
    test::expect_same_flows(want, got);
    test::expect_same_order(want, got);
  }
  // Two hand-made ties per probe; the capture has ties of its own.
  EXPECT_GT(ties, 2 * swarm.probe_count());
}

TEST(FlowTable, EmptyRunAddsNoFlow) {
  FlowTable table{kProbe};
  table.add_run(kPeerA, Direction::kRx, sim::PacketKind::kVideo, 1250, 110,
                {});
  EXPECT_EQ(table.flow_count(), 0u);
}

TEST(FlowTable, WeightedTtlUpdateFreesASlotMidRun) {
  // Slots hold 100:3, 101:1, 102:2. A run of four 103s spends one copy
  // on the decrement that frees 101's slot, and lands the other three
  // there; 100 and 102 keep 2 and 1.
  FlowTable table{kProbe};
  const std::vector<SimTime> one{SimTime{1}};
  const std::vector<SimTime> four(4, SimTime{2});
  for (const auto& [ttl, n] :
       {std::pair{100, 3}, std::pair{101, 1}, std::pair{102, 2}}) {
    for (int i = 0; i < n; ++i) {
      table.add_run(kPeerA, Direction::kRx, sim::PacketKind::kSignaling, 120,
                    static_cast<std::uint8_t>(ttl), one);
    }
  }
  table.add_run(kPeerA, Direction::kRx, sim::PacketKind::kSignaling, 120, 103,
                four);
  const FlowStats* a = table.find(kPeerA);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->ttl_candidates, (std::array<std::uint8_t, 3>{100, 103, 102}));
  EXPECT_EQ(a->ttl_counts, (std::array<std::int32_t, 3>{2, 3, 1}));
  EXPECT_EQ(a->rx_ttl_mode(), 103);
}

TEST(FlowTable, HandleOutlivesRehashes) {
  // flows_ is node-based: 10k inserts rehash it several times, and a
  // handle taken before them still updates its own flow.
  FlowTable table{kProbe};
  FlowStats& handle = table.flow(kPeerA);
  const std::size_t buckets = table.flows().bucket_count();
  const std::vector<SimTime> one{SimTime{5}};
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    table.add_run(Ipv4Addr{(30u << 24) + i}, Direction::kTx,
                  sim::PacketKind::kSignaling, 120, 128, one);
  }
  EXPECT_GT(table.flows().bucket_count(), 8 * buckets);
  table.add_run(handle, Direction::kRx, sim::PacketKind::kVideo, 1250, 110,
                one);
  const FlowStats* a = table.find(kPeerA);
  ASSERT_EQ(a, &handle);
  EXPECT_EQ(a->remote, kPeerA);
  EXPECT_EQ(a->rx_video_pkts, 1u);
  EXPECT_EQ(a->first_ts, SimTime{5});
  EXPECT_EQ(table.total_rx_pkts(), 1u);
  EXPECT_EQ(table.total_tx_pkts(), 10'000u);
}

TEST(FlowTable, HandleTakesTheOrderOfTheFirstAdd) {
  // Resolving a handle where the first packet is captured puts the
  // remote where add() would in flows() order, whether the remote's
  // later packets go through the handle or by address.
  FlowTable by_handle{kProbe};
  FlowTable by_address{kProbe};
  std::vector<FlowStats*> handles;
  for (std::uint32_t i = 0; i < 300; ++i) {
    const Ipv4Addr remote{(40u << 24) + i * 7919u};
    const PacketRecord record = sig_tx(remote, 1000 + i);
    handles.push_back(&by_handle.flow(remote));
    by_handle.add_run(*handles.back(), record.dir, record.kind, record.bytes,
                      record.ttl, {&record.ts, 1});
    by_address.add(record);
  }
  for (std::uint32_t i = 0; i < 300; ++i) {
    const PacketRecord record =
        video_rx(Ipv4Addr{(40u << 24) + i * 7919u}, 5000 + i);
    by_handle.add_run(*handles[i], record.dir, record.kind, record.bytes,
                      record.ttl, {&record.ts, 1});
    by_address.add(record);
  }
  test::expect_same_flows(by_address, by_handle);
  test::expect_same_order(by_address, by_handle);
}

TEST(FlowTable, CountedUpdateEqualsSingleAdds) {
  // n signaling packets stamped lo..hi, as one counted update and as
  // n single adds: every field, the totals and the TTL sketch agree,
  // for TX and RX, on a fresh flow and on one with history (whose
  // stamps lie inside [lo, hi]), for a run of one and of many.
  const SimTime lo{1'000};
  const SimTime hi{91'000};
  for (const Direction dir : {Direction::kTx, Direction::kRx}) {
    for (const bool fresh : {true, false}) {
      for (const std::uint64_t n : {std::uint64_t{1}, std::uint64_t{10}}) {
        SCOPED_TRACE(std::string(dir == Direction::kTx ? "tx" : "rx") +
                     (fresh ? " fresh" : " history") + " n=" +
                     std::to_string(n));
        FlowTable singles{kProbe};
        FlowTable counted{kProbe};
        if (!fresh) {
          for (FlowTable* table : {&singles, &counted}) {
            table->add(video_rx(kPeerA, 40'000, 112));
            table->add(video_rx(kPeerA, 41'000, 112));
            table->add(sig_tx(kPeerA, 42'000));
            table->add(video_rx(kPeerB, 43'000, 99));
          }
        }
        const std::uint8_t ttl = dir == Direction::kTx ? 128 : 112;
        const SimTime last = n == 1 ? lo : hi;
        for (std::uint64_t k = 0; k < n; ++k) {
          const std::int64_t step =
              n == 1 ? 0
                     : (last.ns() - lo.ns()) / static_cast<std::int64_t>(n - 1);
          singles.add({SimTime{lo.ns() + static_cast<std::int64_t>(k) * step},
                       kPeerA, 200, dir, sim::PacketKind::kSignaling, ttl});
        }
        counted.add_counted(counted.flow(kPeerA), dir, 200, ttl, n, lo, last);
        test::expect_same_flows(singles, counted);
        test::expect_same_order(singles, counted);
      }
    }
  }
}

TEST(FlowTable, CountedUpdateOfNothingChangesNothing) {
  FlowTable table{kProbe};
  table.add(video_rx(kPeerA, 5'000));
  table.add(sig_tx(kPeerA, 6'000));
  const FlowStats before = *table.find(kPeerA);
  for (const Direction dir : {Direction::kTx, Direction::kRx}) {
    table.add_counted(table.flow(kPeerA), dir, 200, 100, 0, SimTime{1},
                      SimTime::max());
  }
  test::expect_same_flow(before, *table.find(kPeerA));
  EXPECT_EQ(table.total_rx_pkts(), 1u);
  EXPECT_EQ(table.total_tx_pkts(), 1u);
  EXPECT_EQ(table.total_rx_bytes(), 1250u);
  EXPECT_EQ(table.total_tx_bytes(), 120u);
}

TEST(RecordOrdering, TotalOrder) {
  const PacketRecord a = video_rx(kPeerA, 100);
  const PacketRecord b = video_rx(kPeerA, 200);
  EXPECT_TRUE(record_before(a, b));
  EXPECT_FALSE(record_before(b, a));
  const PacketRecord c = video_rx(kPeerB, 100);
  EXPECT_TRUE(record_before(a, c));  // same ts, smaller remote first
  PacketRecord d = a;
  d.dir = Direction::kTx;
  EXPECT_TRUE(record_before(a, d));  // RX before TX at equal (ts, remote)
}

}  // namespace
}  // namespace peerscope::trace
