// Microbenchmark: end-to-end swarm simulation throughput — how many
// simulated seconds per wall second each application profile achieves.
#include <benchmark/benchmark.h>

#include "exp/testbed.hpp"
#include "p2p/swarm.hpp"

using namespace peerscope;

namespace {

void run_profile(benchmark::State& state, p2p::SystemProfile profile,
                 std::size_t background) {
  static const net::AsTopology topo = net::make_reference_topology();
  static const exp::Testbed testbed = exp::Testbed::table1();
  profile.population.background_peers = background;
  const auto sim_seconds = static_cast<std::int64_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    p2p::SwarmConfig config;
    config.profile = profile;
    config.seed = seed++;
    config.duration = util::SimTime::seconds(sim_seconds);
    p2p::Swarm swarm{topo, testbed.probes(), config};
    swarm.run();
    benchmark::DoNotOptimize(swarm.counters().chunks_delivered);
  }
  state.counters["sim_s_per_wall_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(sim_seconds),
      benchmark::Counter::kIsRate);
}

void BM_SwarmTvants(benchmark::State& state) {
  run_profile(state, p2p::SystemProfile::tvants(), 520);
}
BENCHMARK(BM_SwarmTvants)->Arg(30)->Unit(benchmark::kMillisecond);

void BM_SwarmSopcast(benchmark::State& state) {
  run_profile(state, p2p::SystemProfile::sopcast(), 2'000);
}
BENCHMARK(BM_SwarmSopcast)->Arg(30)->Unit(benchmark::kMillisecond);

void BM_SwarmPplive(benchmark::State& state) {
  run_profile(state, p2p::SystemProfile::pplive(), 15'000);
}
BENCHMARK(BM_SwarmPplive)->Arg(30)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
