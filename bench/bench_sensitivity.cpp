// Replication sensitivity: Table IV's key cells as mean ± stddev over
// independent seeds — how stable the reproduced statistics are, and
// whether the paper's qualitative conclusions survive run-to-run noise.
#include <iostream>

#include "bench/harness.hpp"
#include "exp/sensitivity.hpp"

using namespace peerscope;
using namespace peerscope::bench;

namespace {

std::string pm(const util::OnlineStats& s) {
  if (s.count() == 0) return "-";
  return fmt(s.mean()) + "±" + fmt(s.stddev());
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::from_env();
  const net::AsTopology topo = net::make_reference_topology();
  const std::uint64_t seeds[] = {cfg.seed,     cfg.seed + 1, cfg.seed + 2,
                                 cfg.seed + 3, cfg.seed + 4};
  const auto duration = util::SimTime::seconds(
      std::min<std::int64_t>(cfg.seconds, 150));  // 5 replications each

  std::cout << "=== Replication sensitivity: mean ± stddev over "
            << std::size(seeds) << " seeds (" << duration.seconds()
            << " s runs) ===\n\n";

  util::ThreadPool pool;
  util::TextTable table{{"App", "metric", "B'D%", "P'D%", "BD%", "PD%",
                         "self-bias bytes%"}};
  bool tvants_above_sopcast = true;
  double tvants_as_b = 0, sopcast_as_b = 0, sopcast_as_sd = 0;

  for (const auto& profile :
       {p2p::SystemProfile::pplive(), p2p::SystemProfile::sopcast(),
        p2p::SystemProfile::tvants()}) {
    const auto result =
        exp::run_sensitivity(topo, profile, duration, seeds, pool);
    for (const auto& metric : result.metrics) {
      table.add_row({profile.name, aware::to_string(metric.metric),
                     pm(metric.download.b_prime),
                     pm(metric.download.p_prime), pm(metric.download.b),
                     pm(metric.download.p),
                     metric.metric == aware::Metric::kBw
                         ? pm(result.self_bias_bytes_pct)
                         : ""});
    }
    table.add_rule();
    if (profile.name == "TVAnts") {
      tvants_as_b = result.metrics[1].download.b_prime.mean();
    }
    if (profile.name == "SopCast") {
      sopcast_as_b = result.metrics[1].download.b_prime.mean();
      sopcast_as_sd = result.metrics[1].download.b_prime.stddev();
    }
  }
  std::cout << table.render();

  tvants_above_sopcast = tvants_as_b > sopcast_as_b + 2 * sopcast_as_sd;
  std::cout << "\nshape checks (must hold):\n"
            << "  TVAnts AS byte-preference exceeds SopCast's by > 2 sigma: "
            << (tvants_above_sopcast ? "yes" : "NO") << " ("
            << fmt(tvants_as_b) << " vs " << fmt(sopcast_as_b) << "±"
            << fmt(sopcast_as_sd) << ")\n";
  return 0;
}
