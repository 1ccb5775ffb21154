// The paper's conclusion, made runnable: "future P2P-TV applications
// could improve the level of network-awareness, by better localizing
// the traffic the network has to carry, seeking shorter paths,
// exploiting topology knowledge".
//
// This study compares a location-blind 2008 baseline (SopCast profile)
// against the NAPA-WINE prototype policy (explicit AS bias + RTT
// awareness + topology-aware discovery) on the same swarm, and reports
// both *network friendliness* (traffic localisation, path length) and
// *user QoS* (delivery ratio, duplicates) — showing the localisation
// win costs essentially nothing.
//
//   ./nextgen_locality [duration_s] [seed]

#include <cstdlib>
#include <iostream>

#include "aware/report.hpp"
#include "exp/runner.hpp"
#include "net/topology.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace peerscope;

namespace {

struct Friendliness {
  double intra_as_bytes_pct = 0;   // download bytes from same-AS peers
  double intra_cc_bytes_pct = 0;
  double byte_weighted_hops = 0;   // mean path length per delivered byte
  double intercontinental_pct = 0; // bytes from CN/ROW sources
  double delivery_ratio = 0;       // chunks delivered / chunks expected
  double duplicate_pct = 0;
};

Friendliness measure(const exp::RunResult& result,
                     const p2p::SystemProfile& profile,
                     util::SimTime duration) {
  Friendliness f;
  std::uint64_t bytes = 0, same_as = 0, same_cc = 0, intercont = 0;
  double hop_bytes = 0;
  for (const auto& per_probe : result.observations.per_probe) {
    for (const auto& obs : per_probe) {
      if (obs.rx_video_bytes == 0) continue;
      bytes += obs.rx_video_bytes;
      if (obs.remote_as == obs.probe_as) same_as += obs.rx_video_bytes;
      if (obs.remote_cc == obs.probe_cc) same_cc += obs.rx_video_bytes;
      if (obs.remote_cc == net::kChina ||
          obs.remote_cc == net::CountryCode{'U', 'S'} ||
          obs.remote_cc == net::CountryCode{'K', 'R'} ||
          obs.remote_cc == net::CountryCode{'J', 'P'} ||
          obs.remote_cc == net::CountryCode{'T', 'W'} ||
          obs.remote_cc == net::CountryCode{'C', 'A'}) {
        intercont += obs.rx_video_bytes;
      }
      if (obs.rx_hops >= 0) {
        hop_bytes += static_cast<double>(obs.rx_video_bytes) *
                     static_cast<double>(obs.rx_hops);
      }
    }
  }
  if (bytes > 0) {
    f.intra_as_bytes_pct =
        100.0 * static_cast<double>(same_as) / static_cast<double>(bytes);
    f.intra_cc_bytes_pct =
        100.0 * static_cast<double>(same_cc) / static_cast<double>(bytes);
    f.intercontinental_pct =
        100.0 * static_cast<double>(intercont) / static_cast<double>(bytes);
    f.byte_weighted_hops = hop_bytes / static_cast<double>(bytes);
  }

  // QoS: chunks each probe should have fetched over the run.
  const double chunks_per_probe =
      duration.seconds() / profile.stream.chunk_interval().seconds();
  const double expected =
      chunks_per_probe * static_cast<double>(result.observations.probes.size());
  f.delivery_ratio =
      static_cast<double>(result.counters.chunks_delivered) / expected;
  const auto total = result.counters.chunks_delivered +
                     result.counters.chunks_duplicate;
  f.duplicate_pct = total ? 100.0 *
                                static_cast<double>(
                                    result.counters.chunks_duplicate) /
                                static_cast<double>(total)
                          : 0.0;
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t duration_s = argc > 1 ? std::atoll(argv[1]) : 150;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  const net::AsTopology topo = net::make_reference_topology();
  const auto duration = util::SimTime::seconds(duration_s);

  const p2p::SystemProfile baseline = p2p::SystemProfile::sopcast();
  const p2p::SystemProfile nextgen = p2p::SystemProfile::napawine_prototype();

  std::vector<exp::RunSpec> specs(2);
  specs[0].profile = baseline;
  specs[1].profile = nextgen;
  for (auto& spec : specs) {
    spec.seed = seed;
    spec.duration = duration;
  }

  std::cout << "Comparing '" << baseline.name << "' (location-blind 2008 "
            << "baseline) vs '" << nextgen.name
            << "' (the paper's recommendation) on the same swarm...\n\n";
  util::ThreadPool pool;
  const auto results = exp::run_experiments(topo, specs, pool);
  const Friendliness base = measure(results[0], baseline, duration);
  const Friendliness next = measure(results[1], nextgen, duration);

  util::TextTable table{
      {"metric", baseline.name, nextgen.name, "change"}};
  const auto num = [](double v, int p = 1) {
    return util::TextTable::num(v, p);
  };
  auto row = [&](const std::string& label, double a, double b, int p = 1) {
    // Appends, not "literal" + std::string: GCC 12 at -O3 reports a
    // false -Werror=restrict on the operator+ form.
    std::string change = b >= a ? "+" : "";
    change += num(b - a, p);
    table.add_row({label, num(a, p), num(b, p), change});
  };
  row("intra-AS download bytes %", base.intra_as_bytes_pct,
      next.intra_as_bytes_pct);
  row("same-country download bytes %", base.intra_cc_bytes_pct,
      next.intra_cc_bytes_pct);
  row("intercontinental download bytes %", base.intercontinental_pct,
      next.intercontinental_pct);
  row("byte-weighted mean hops", base.byte_weighted_hops,
      next.byte_weighted_hops);
  table.add_rule();
  row("chunk delivery ratio", base.delivery_ratio, next.delivery_ratio, 3);
  row("duplicate chunks %", base.duplicate_pct, next.duplicate_pct, 2);
  std::cout << table.render();

  std::cout << "\nconclusion checks:\n"
            << "  localisation improves (more intra-AS bytes): "
            << (next.intra_as_bytes_pct > 2 * base.intra_as_bytes_pct
                    ? "yes"
                    : "NO")
            << '\n'
            << "  paths shorten (fewer byte-weighted hops): "
            << (next.byte_weighted_hops < base.byte_weighted_hops ? "yes"
                                                                  : "NO")
            << '\n'
            << "  QoS preserved (delivery within 2%): "
            << (next.delivery_ratio > base.delivery_ratio - 0.02 ? "yes"
                                                                 : "NO")
            << '\n';
  return 0;
}
