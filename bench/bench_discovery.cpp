// Discovery resilience sweep: does the paper's network-awareness
// picture survive losing the tracker? Re-runs the three applications
// through the pluggable discovery subsystem under increasingly hostile
// control-plane scenarios — extracted tracker (clean), a mid-run hard
// tracker outage with DHT failover, the same outage with gossip
// failover plus NAT traversal, and a flash crowd on top — and reports,
// per scenario, the Figure 2 intra/inter-AS ratios and contributor
// counts next to the failover/re-join telemetry.
//
// The claims checked: every scenario with a fallback completes with
// zero missed re-joins under a 30 s SLO, the failover machinery
// demonstrably fired in the outage scenarios, and the Figure 2
// contributor ordering (TVAnts most network-aware, strongest intra-AS
// preference) survives every scenario — tracker death must not change
// which application looks network-aware.
#include <iostream>

#include "aware/report.hpp"
#include "bench/harness.hpp"
#include "exp/runner.hpp"

using namespace peerscope;
using namespace peerscope::bench;

namespace {

struct Scenario {
  const char* name;
  p2p::DiscoverySpec discovery;
  [[nodiscard]] bool outage() const {
    return discovery.tracker_outages();
  }
};

std::vector<Scenario> make_scenarios(std::int64_t seconds) {
  // The outage window sits mid-run: starts a third in, lasts a third —
  // long enough that every swarm exhausts its tracker retries and must
  // fail over, with a full third of the run left to recover in.
  const auto outage_start = util::SimTime::seconds(seconds / 3);
  const auto outage_len = util::SimTime::seconds(seconds / 3);
  const auto deadline = util::SimTime::seconds(30);

  std::vector<Scenario> scenarios;

  Scenario tracker{"tracker (extracted)", {}};
  tracker.discovery.primary = p2p::DiscoveryBackendKind::kTracker;
  tracker.discovery.rejoin_deadline = deadline;
  scenarios.push_back(tracker);

  Scenario dht{"outage -> dht", {}};
  dht.discovery.primary = p2p::DiscoveryBackendKind::kTracker;
  dht.discovery.fallback = p2p::DiscoveryBackendKind::kDht;
  dht.discovery.tracker_outage_start = outage_start;
  dht.discovery.tracker_outage_duration = outage_len;
  dht.discovery.rejoin_deadline = deadline;
  scenarios.push_back(dht);

  Scenario gossip{"outage -> gossip + nat", {}};
  gossip.discovery.primary = p2p::DiscoveryBackendKind::kTracker;
  gossip.discovery.fallback = p2p::DiscoveryBackendKind::kGossip;
  gossip.discovery.tracker_outage_start = outage_start;
  gossip.discovery.tracker_outage_duration = outage_len;
  gossip.discovery.rejoin_deadline = deadline;
  gossip.discovery.nat.enabled = true;
  scenarios.push_back(gossip);

  Scenario crowd{"outage + flash crowd", {}};
  crowd.discovery.primary = p2p::DiscoveryBackendKind::kTracker;
  crowd.discovery.fallback = p2p::DiscoveryBackendKind::kDht;
  crowd.discovery.tracker_outage_start = outage_start;
  crowd.discovery.tracker_outage_duration = outage_len;
  crowd.discovery.rejoin_deadline = deadline;
  crowd.discovery.flash_crowd_at = util::SimTime::seconds(seconds / 6);
  crowd.discovery.flash_crowd_arrivals = 60;
  crowd.discovery.session_tail_alpha = 1.5;
  scenarios.push_back(crowd);
  return scenarios;
}

std::vector<exp::RunResult> run_scenario(const net::AsTopology& topo,
                                         const BenchConfig& cfg,
                                         const Scenario& scenario) {
  std::vector<exp::RunSpec> specs;
  for (auto profile :
       {p2p::SystemProfile::pplive(), p2p::SystemProfile::sopcast(),
        p2p::SystemProfile::tvants()}) {
    exp::RunSpec spec;
    spec.profile = std::move(profile);
    spec.seed = cfg.seed;
    spec.duration = util::SimTime::seconds(cfg.seconds);
    spec.discovery = scenario.discovery;
    specs.push_back(std::move(spec));
  }
  util::ThreadPool pool;
  return exp::run_experiments(topo, specs, pool);
}

struct ScenarioOutcome {
  // Per app [pplive, sopcast, tvants].
  double as_ratio[3] = {0, 0, 0};
  double contrib_rx[3] = {0, 0, 0};
  p2p::DiscoveryCounters discovery;
};

ScenarioOutcome analyse(const std::vector<exp::RunResult>& results) {
  ScenarioOutcome outcome;
  for (std::size_t app = 0; app < results.size(); ++app) {
    const auto summary = aware::summarize(results[app].observations);
    outcome.contrib_rx[app] = summary.contrib_rx_mean;
    outcome.as_ratio[app] =
        aware::as_traffic_matrix(results[app].observations).intra_inter_ratio;
    const auto& d = results[app].counters.discovery;
    auto& t = outcome.discovery;
    t.failovers += d.failovers;
    t.recoveries += d.recoveries;
    t.joins_ok += d.joins_ok;
    t.join_retries += d.join_retries;
    t.tracker_failures += d.tracker_failures;
    t.dht_lookups += d.dht_lookups;
    t.gossip_exchanges += d.gossip_exchanges;
    t.nat_relayed += d.nat_relayed;
    t.nat_blocked += d.nat_blocked;
    t.flash_arrivals += d.flash_arrivals;
  }
  return outcome;
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::from_env();
  const net::AsTopology topo = net::make_reference_topology();
  std::cout << "=== Discovery resilience: Figure 2 ratios under tracker "
               "outages, failover, NAT, flash crowds ===\n\n";

  const auto scenarios = make_scenarios(cfg.seconds);
  std::vector<ScenarioOutcome> outcomes;
  outcomes.reserve(scenarios.size());

  constexpr const char* kApps[3] = {"PPLive", "SopCast", "TVAnts"};
  util::TextTable table{{"scenario", "app", "R(AS)", "contribs", "failovers",
                         "recoveries", "retries", "trk-fail"}};
  for (const auto& scenario : scenarios) {
    // run_experiment throws DiscoveryDegraded on a missed re-join, so
    // reaching the table at all certifies the 30 s SLO held.
    const auto results = run_scenario(topo, cfg, scenario);
    outcomes.push_back(analyse(results));
    const ScenarioOutcome& o = outcomes.back();
    for (std::size_t app = 0; app < 3; ++app) {
      table.add_row(
          {app == 0 ? scenario.name : "", kApps[app],
           fmt(o.as_ratio[app], 2), fmt(o.contrib_rx[app], 0),
           app == 0 ? util::TextTable::count(o.discovery.failovers) : "",
           app == 0 ? util::TextTable::count(o.discovery.recoveries) : "",
           app == 0 ? util::TextTable::count(o.discovery.join_retries) : "",
           app == 0 ? util::TextTable::count(o.discovery.tracker_failures)
                    : ""});
    }
    table.add_rule();
  }
  std::cout << table.render();

  std::cout << "\nshape checks:\n";
  bool all_rejoined = true;  // no DiscoveryDegraded escaped above
  bool failover_fired = true;
  bool ordering_survives = true;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ScenarioOutcome& o = outcomes[i];
    if (scenarios[i].outage() &&
        (o.discovery.failovers == 0 || o.discovery.tracker_failures == 0)) {
      failover_fired = false;  // the outage did nothing
    }
    // Figure 2 contributor ordering: TVAnts keeps the strongest
    // intra-AS preference and stays the most network-aware app in
    // every scenario, tracker or no tracker.
    if (!(o.as_ratio[2] > 1.5 && o.as_ratio[2] > o.as_ratio[1] &&
          o.as_ratio[2] > o.as_ratio[0])) {
      ordering_survives = false;
    }
  }
  std::cout << "  all swarms re-joined within the 30 s SLO: "
            << (all_rejoined ? "yes" : "NO") << '\n';
  std::cout << "  failover fired in every outage scenario: "
            << (failover_fired ? "yes" : "NO") << '\n';
  std::cout << "  Fig.2 ratio ordering survives every scenario (TVAnts > "
               "1.5 and largest): "
            << (ordering_survives ? "yes" : "NO") << '\n';
  return 0;
}
