// Degradation sweep: does the paper's methodology survive a hostile
// network? Re-runs the three applications under increasing impairment
// (bursty loss, capture reordering/duplication, link outages, peer
// churn) and reports, per level, the Table IV BW row and the Figure 2
// intra/inter-AS ratios next to the clean baseline, plus the recovery
// error. The conclusions must be robust: the BW preference and the
// ratio ordering have to survive <= 5% bursty loss with churn, or the
// reproduction would only hold on lossless campus captures.
//
// Impaired levels analyse with the robust BW estimator (ipg_discard=2):
// capture duplication/reordering fabricate near-zero inter-packet gaps
// that the plain minimum would read as infinite-capacity paths.
#include <cmath>
#include <iostream>

#include "aware/report.hpp"
#include "bench/harness.hpp"
#include "exp/runner.hpp"

using namespace peerscope;
using namespace peerscope::bench;

namespace {

struct Level {
  const char* name;
  sim::ImpairmentSpec impairment;
  p2p::ChurnSpec churn;
  [[nodiscard]] bool faulty() const {
    return impairment.enabled() || churn.enabled();
  }
};

std::vector<Level> make_levels() {
  std::vector<Level> levels;
  levels.push_back({"clean", {}, {}});

  Level mild{"loss 1% burst 3", {}, {}};
  mild.impairment.loss_rate = 0.01;
  mild.impairment.loss_burst = 3.0;
  levels.push_back(mild);

  Level medium{"loss 3% + reorder/dup", {}, {}};
  medium.impairment.loss_rate = 0.03;
  medium.impairment.loss_burst = 3.0;
  medium.impairment.reorder_rate = 0.005;
  medium.impairment.duplicate_rate = 0.005;
  levels.push_back(medium);

  Level harsh{"loss 5% + churn + outages", {}, {}};
  harsh.impairment.loss_rate = 0.05;
  harsh.impairment.loss_burst = 4.0;
  harsh.impairment.reorder_rate = 0.01;
  harsh.impairment.duplicate_rate = 0.01;
  harsh.impairment.outage_per_s = 0.02;  // one ~200 ms outage per 50 s
  harsh.churn.probe_session_s = 120.0;
  harsh.churn.bg_session_s = 90.0;
  harsh.churn.nat_connect_failure = 0.3;
  harsh.churn.firewall_connect_failure = 0.3;
  levels.push_back(harsh);
  return levels;
}

std::vector<exp::RunResult> run_level(const net::AsTopology& topo,
                                      const BenchConfig& cfg,
                                      const Level& level) {
  std::vector<exp::RunSpec> specs;
  for (auto profile :
       {p2p::SystemProfile::pplive(), p2p::SystemProfile::sopcast(),
        p2p::SystemProfile::tvants()}) {
    exp::RunSpec spec;
    spec.profile = std::move(profile);
    spec.seed = cfg.seed;
    spec.duration = util::SimTime::seconds(cfg.seconds);
    spec.impairment = level.impairment;
    spec.churn = level.churn;
    specs.push_back(std::move(spec));
  }
  util::ThreadPool pool;
  return exp::run_experiments(topo, specs, pool);
}

struct LevelOutcome {
  // Per app [pplive, sopcast, tvants].
  double bw_bprime[3] = {0, 0, 0};
  double bw_pprime[3] = {0, 0, 0};
  double as_ratio[3] = {0, 0, 0};
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t crashes = 0;
};

LevelOutcome analyse(const std::vector<exp::RunResult>& results,
                     bool faulty) {
  LevelOutcome outcome;
  aware::AwarenessConfig cfg;
  if (faulty) cfg.bw.ipg_discard = 2;
  for (std::size_t app = 0; app < results.size(); ++app) {
    const auto rows = aware::awareness_table(results[app].observations, cfg);
    const auto& bw = rows[0].download;  // rows[0] is the BW metric
    outcome.bw_bprime[app] = bw.b_prime_pct.value_or(0.0);
    outcome.bw_pprime[app] = bw.p_prime_pct.value_or(0.0);
    outcome.as_ratio[app] =
        aware::as_traffic_matrix(results[app].observations).intra_inter_ratio;
    outcome.timeouts += results[app].counters.timeouts;
    outcome.retries += results[app].counters.chunks_retried;
    outcome.crashes += results[app].counters.probe_crashes;
  }
  return outcome;
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::from_env();
  const net::AsTopology topo = net::make_reference_topology();
  std::cout << "=== Degradation sweep: Table IV BW row + Figure 2 ratios "
               "under impairment ===\n\n";

  const auto levels = make_levels();
  std::vector<LevelOutcome> outcomes;
  outcomes.reserve(levels.size());

  constexpr const char* kApps[3] = {"PPLive", "SopCast", "TVAnts"};
  util::TextTable table{{"level", "app", "B'D%", "P'D%", "R(AS)",
                         "timeouts", "retries", "crashes"}};
  for (const auto& level : levels) {
    const auto results = run_level(topo, cfg, level);
    outcomes.push_back(analyse(results, level.faulty()));
    const LevelOutcome& outcome = outcomes.back();
    for (std::size_t app = 0; app < 3; ++app) {
      table.add_row({app == 0 ? level.name : "", kApps[app],
                     fmt(outcome.bw_bprime[app]), fmt(outcome.bw_pprime[app]),
                     fmt(outcome.as_ratio[app], 2),
                     app == 0 ? util::TextTable::count(outcome.timeouts) : "",
                     app == 0 ? util::TextTable::count(outcome.retries) : "",
                     app == 0 ? util::TextTable::count(outcome.crashes) : ""});
    }
    table.add_rule();
  }
  std::cout << table.render();

  // Recovery error: how far each impaired level's estimates drift from
  // the clean baseline (mean absolute difference over the three apps).
  const LevelOutcome& base = outcomes.front();
  std::cout << "\nrecovery error vs clean baseline (mean |delta| over apps):\n";
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    double db = 0, dp = 0;
    for (std::size_t app = 0; app < 3; ++app) {
      db += std::abs(outcomes[i].bw_bprime[app] - base.bw_bprime[app]);
      dp += std::abs(outcomes[i].bw_pprime[app] - base.bw_pprime[app]);
    }
    std::cout << "  " << levels[i].name << ": B'D " << fmt(db / 3.0)
              << " pts, P'D " << fmt(dp / 3.0) << " pts\n";
  }

  std::cout << "\nshape checks (must hold at every level, clean through "
               "5% loss + churn):\n";
  bool bw_survives = true;
  bool ordering_survives = true;
  bool faults_fired = true;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const LevelOutcome& o = outcomes[i];
    for (std::size_t app = 0; app < 3; ++app) {
      // Same thresholds as claim table4.bw_strong (aware/claims.hpp).
      if (!(o.bw_bprime[app] > 90 && o.bw_pprime[app] > 65)) {
        bw_survives = false;
      }
    }
    // Figure 2 ordering: TVAnts keeps a clear intra-AS preference and
    // stays the most network-aware application at every level. The
    // absolute SopCast < 1.5 threshold is a clean-reproduction check
    // (claim fig2.sopcast_no_intra_as); a ratio near 1 wobbles across
    // the line once loss thins the byte counts, but the ordering itself
    // is stable.
    if (!(o.as_ratio[2] > 1.5 && o.as_ratio[2] > o.as_ratio[1] &&
          o.as_ratio[2] > o.as_ratio[0])) {
      ordering_survives = false;
    }
    if (i == 0 && !(o.as_ratio[1] < 1.5)) ordering_survives = false;
    if (i > 0 && o.timeouts == 0 && o.retries == 0 && o.crashes == 0) {
      faults_fired = false;  // the injection level did nothing
    }
  }
  std::cout << "  BW preference survives (B' > 90, P' > 65 at all levels): "
            << (bw_survives ? "yes" : "NO") << '\n';
  std::cout << "  Fig.2 ratio ordering survives (TVAnts > 1.5 and largest "
               "at all levels): "
            << (ordering_survives ? "yes" : "NO") << '\n';
  std::cout << "  fault injection visibly active at impaired levels: "
            << (faults_fired ? "yes" : "NO") << '\n';
  return 0;
}
