// Quickstart: run one scaled-down P2P-TV experiment and print its
// analysis in `peerscope report`'s layout — the whole pipeline
// (simulate -> capture -> contributor heuristic -> preference
// framework -> report) in ~30 lines of user code.
//
//   ./quickstart [app] [seed] [duration_s]
//     app: tvants (default) | sopcast | pplive | pplive-popular

#include <cstdlib>
#include <iostream>
#include <string>

#include "aware/render.hpp"
#include "exp/runner.hpp"
#include "net/topology.hpp"

using namespace peerscope;

namespace {

p2p::SystemProfile profile_by_name(const std::string& name) {
  if (name == "pplive") return p2p::SystemProfile::pplive();
  if (name == "sopcast") return p2p::SystemProfile::sopcast();
  if (name == "pplive-popular") return p2p::SystemProfile::pplive_popular();
  if (name == "tvants") return p2p::SystemProfile::tvants();
  std::cerr << "unknown app '" << name
            << "' (expected tvants|sopcast|pplive|pplive-popular)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string app = argc > 1 ? argv[1] : "tvants";
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  const std::int64_t duration_s = argc > 3 ? std::atoll(argv[3]) : 120;

  const net::AsTopology topo = net::make_reference_topology();

  exp::RunSpec spec;
  spec.profile = profile_by_name(app);
  spec.seed = seed;
  spec.duration = util::SimTime::seconds(duration_s);

  std::cout << "Running " << spec.profile.name << " experiment: "
            << spec.profile.population.background_peers
            << " background peers, " << duration_s << " s, seed " << seed
            << "...\n";
  const exp::RunResult result = exp::run_experiment(topo, spec);

  std::cout << aware::render_app(result.observations.app,
                                 aware::app_report(result.observations));

  std::cout << "\nsim counters: delivered=" << result.counters.chunks_delivered
            << " dup=" << result.counters.chunks_duplicate
            << " uploaded=" << result.counters.chunks_uploaded
            << " refused=" << result.counters.requests_refused
            << " contacts=" << result.counters.contacts
            << " timeouts=" << result.counters.timeouts << '\n';
  return 0;
}
