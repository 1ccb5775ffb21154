// Ablation: planted-bias sweep (DESIGN.md §4). Sweeps the same-AS
// scheduling weight and the bandwidth weight of a TVAnts-like swarm and
// reports the preferences the black-box pipeline recovers. Validates
// the methodology end-to-end: recovered byte bias must be monotone in
// the planted weight, and switching a bias off must flatten B' to P'.
#include <iostream>

#include "aware/report.hpp"
#include "bench/harness.hpp"
#include "exp/runner.hpp"

using namespace peerscope;
using namespace peerscope::bench;

namespace {

exp::RunSpec base_spec(const BenchConfig& cfg) {
  exp::RunSpec spec;
  spec.profile = p2p::SystemProfile::tvants();
  spec.profile.population.background_peers = 520;
  spec.seed = cfg.seed;
  spec.duration = util::SimTime::seconds(std::min<std::int64_t>(
      cfg.seconds, 120));  // the sweep runs many experiments
  return spec;
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::from_env();
  const net::AsTopology topo = net::make_reference_topology();

  std::cout << "=== Ablation A: same-AS scheduling weight vs recovered AS "
               "preference (3 seeds per point) ===\n\n";
  {
    util::TextTable table{{"same_as weight", "B'D%", "P'D%", "B'/P'"}};
    double weight_off = 0, weight_max = 0;
    bool first = true;
    double previous = -1.0;
    bool monotone = true;
    for (const double weight : {0.0, 0.7, 1.4, 2.8, 5.6, 11.2}) {
      // The same-AS contributor pool is small, so single runs are
      // noisy; aggregate the preference counts over three seeds.
      aware::PreferenceCounts counts;
      for (std::uint64_t seed_offset = 0; seed_offset < 3; ++seed_offset) {
        exp::RunSpec spec = base_spec(cfg);
        spec.profile.select.same_as = weight;
        spec.seed = cfg.seed + seed_offset;
        const auto result = exp::run_experiment(topo, spec);
        aware::PreferenceOptions opt;
        opt.exclude_napa = true;
        for (const auto& per_probe : result.observations.per_probe) {
          counts.merge(aware::evaluate_preference(
              per_probe, aware::as_partition(), opt));
        }
      }
      const double b = counts.byte_pct();
      const double p = counts.peer_pct();
      table.add_row({fmt(weight, 1), fmt(b), fmt(p),
                     p > 0 ? fmt(b / p, 2) : "-"});
      if (first) {
        weight_off = b;
        first = false;
      }
      weight_max = b;
      if (b < previous - 2.0) monotone = false;  // noise tolerance
      previous = b;
    }
    std::cout << table.render();
    std::cout << "recovered AS byte-preference rises with the planted "
                 "weight: "
              << (monotone && weight_max > 1.8 * weight_off ? "yes" : "NO")
              << " (" << fmt(weight_off) << "% -> " << fmt(weight_max)
              << "%)\n\n";
  }

  std::cout << "=== Ablation B: bandwidth weight vs recovered BW "
               "preference ===\n\n";
  {
    util::TextTable table{{"bandwidth weight", "B'D%", "P'D%"}};
    double weight_off_b = 0;
    bool first = true;
    for (const double weight : {0.0, 0.25, 0.5, 1.0, 2.0}) {
      exp::RunSpec spec = base_spec(cfg);
      spec.profile.select.bandwidth = weight;
      // Isolate BW: no locality bias in this sweep.
      spec.profile.select.same_as = 0.0;
      spec.profile.discovery_as_bias = 0.0;
      const auto result = exp::run_experiment(topo, spec);
      const auto rows = aware::awareness_table(result.observations);
      const auto& cell = rows[0].download;  // BW row
      const double b = cell.b_prime_pct.value_or(0);
      table.add_row({fmt(weight, 2), fmt(b),
                     fmt_opt(cell.p_prime_pct)});
      if (first) {
        weight_off_b = b;
        first = false;
      }
    }
    std::cout << table.render();
    // The sweep's finding is *robustness*, not monotonicity: even with
    // the selection weight off, high-bandwidth peers carry ~all bytes,
    // because capacity physics (DSL uplinks cannot serve the stream)
    // and their earlier chunk availability dominate. The explicit
    // weight only sharpens the margins. This is the paper's result in
    // its strongest form: BW "awareness" is partly inevitable.
    std::cout << "BW byte-preference persists with the selection weight "
                 "off (emergent from capacity alone): "
              << (weight_off_b > 90.0 ? "yes" : "NO") << " ("
              << fmt(weight_off_b) << "% at weight 0)\n\n";
  }

  std::cout << "=== Ablation C: discovery AS bias vs recovered peer-wise "
               "preference ===\n\n";
  {
    util::TextTable table{{"discovery_as_bias", "P'D%", "B'D%"}};
    double first_p = 0, last_p = 0;
    bool first = true;
    for (const double bias : {0.0, 0.02, 0.05, 0.1}) {
      exp::RunSpec spec = base_spec(cfg);
      spec.profile.discovery_as_bias = bias;
      spec.profile.select.same_as = 0.0;  // isolate discovery from scheduling
      const auto result = exp::run_experiment(topo, spec);
      const auto rows = aware::awareness_table(result.observations);
      const auto& cell = rows[1].download;
      table.add_row({fmt(bias, 2), fmt_opt(cell.p_prime_pct),
                     fmt_opt(cell.b_prime_pct)});
      if (first) {
        first_p = cell.p_prime_pct.value_or(0);
        first = false;
      }
      last_p = cell.p_prime_pct.value_or(0);
    }
    std::cout << table.render();
    std::cout << "discovery bias moves the PEER-wise preference (the "
                 "TVAnts-vs-PPLive distinction): "
              << (last_p > first_p ? "yes" : "NO") << '\n';
  }
  return 0;
}
