// bench_micro_engine — event-core throughput, isolated from the rest
// of the simulator.
//
// Replays a synthetic 50k-peer swarm-shaped workload through
// sim::Engine (calendar queue + slab event pool with inline callable
// storage) and prints events/sec.
//
// The workload mimics what the swarm actually schedules: per-peer tick
// chains, fan-out request events with 24+-byte captures, and a
// cancellation stream. The paper-true 181,729-peer end-to-end run is
// perfbench's `fullscale` workload.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/harness.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace {

using peerscope::util::Rng;
using peerscope::util::SimTime;

// Reference spec: every peer runs a 100 ms tick chain; each tick
// mutates per-peer state and fans out two request events with
// jittered sub-second delays, one of which is sometimes cancelled —
// the pending-set size and capture shapes of a real swarm run,
// without the swarm. The 50k-peer swarm keeps the pending set at the
// scale the engine targets (a 2k-peer set fits in L2 and flatters it).
struct WorkloadSpec {
  int peers = 50'000;
  SimTime horizon = SimTime::seconds(20);
  std::uint64_t seed = 42;
};

struct WorkloadResult {
  std::uint64_t events = 0;
  double wall_s = 0.0;
  [[nodiscard]] double events_per_s() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0;
  }
};

class Workload {
 public:
  explicit Workload(const WorkloadSpec& spec)
      : spec_(spec), rng_(spec.seed), state_(
            static_cast<std::size_t>(spec.peers), 0) {}

  WorkloadResult run() {
    for (int p = 0; p < spec_.peers; ++p) {
      const auto start =
          SimTime::millis(static_cast<std::int64_t>(rng_.below(100)) + 1);
      const auto peer = static_cast<std::size_t>(p);
      engine_.schedule_at(start, [this, peer] { tick(peer); });
    }
    const auto t0 = std::chrono::steady_clock::now();
    engine_.run_until(spec_.horizon);
    const auto t1 = std::chrono::steady_clock::now();
    WorkloadResult out;
    out.events = engine_.executed();
    out.wall_s = std::chrono::duration<double>(t1 - t0).count();
    return out;
  }

 private:
  void tick(std::size_t peer) {
    state_[peer] =
        state_[peer] * 6364136223846793005ULL + 1442695040888963407ULL;
    // Two fan-out requests per tick, each capturing this + peer + a
    // deadline, as the real swarm's completion callbacks do.
    for (int k = 0; k < 2; ++k) {
      const auto delay =
          SimTime::millis(static_cast<std::int64_t>(rng_.below(400)) + 10);
      const SimTime deadline = engine_.now() + delay + SimTime::seconds(1);
      auto handle = engine_.schedule_after(
          delay, [this, peer, deadline] { complete(peer, deadline); });
      // A slice of requests is superseded before it fires (partner
      // drop, duplicate chunk): the cancellation path is hot too.
      if (rng_.chance(0.10)) engine_.cancel(handle);
    }
    if (engine_.now() + kPeriod <= spec_.horizon) {
      engine_.schedule_after(kPeriod, [this, peer] { tick(peer); });
    }
  }

  void complete(std::size_t peer, SimTime deadline) {
    state_[peer] ^= static_cast<std::uint64_t>(deadline.ns());
  }

  static constexpr SimTime kPeriod = SimTime::millis(100);

  WorkloadSpec spec_;
  peerscope::sim::Engine engine_;
  Rng rng_;
  std::vector<std::uint64_t> state_;
};

}  // namespace

int main() {
  using namespace peerscope;

  const bench::BenchConfig cfg = bench::BenchConfig::from_env();
  WorkloadSpec spec;
  spec.seed = cfg.seed;

  std::printf(
      "bench_micro_engine -- event-core throughput (reference spec, %d "
      "peers, %.0fs horizon)\n",
      spec.peers, spec.horizon.seconds());

  Workload workload{spec};
  const WorkloadResult result = workload.run();
  std::printf("  %12s %9s %14s\n", "events", "wall_s", "events/s");
  std::printf("  %12llu %9.3f %14.0f\n",
              static_cast<unsigned long long>(result.events), result.wall_s,
              result.events_per_s());
  return 0;
}
