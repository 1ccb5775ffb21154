#include "exp/runner.hpp"

#include <future>
#include <stdexcept>

#include "aware/observation.hpp"
#include "exp/capture.hpp"
#include "exp/journal.hpp"
#include "exp/testbed.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace peerscope::exp {

aware::ExperimentObservations extract_observations(const p2p::Swarm& swarm) {
  PEERSCOPE_SPAN("extract");
  aware::ExperimentObservations data;
  data.app = swarm.profile().name;
  data.duration = swarm.duration();

  const auto& pop = swarm.population();
  const auto probe_ids = pop.probe_ids();
  data.probes.reserve(probe_ids.size());
  data.per_probe.reserve(probe_ids.size());
  for (std::size_t i = 0; i < probe_ids.size(); ++i) {
    const auto& info = pop.peer(probe_ids[i]);
    const auto& spec = pop.probe_specs()[i];
    data.probes.push_back({info.ep.addr, info.ep.as, info.ep.country,
                           info.access.is_high_bandwidth(), spec.label()});
    data.per_probe.push_back(aware::extract_observations(
        swarm.sink(i).flows(), pop.registry(), pop.probe_addrs()));
  }
  return data;
}

RunResult run_experiment(const net::AsTopology& topo, const RunSpec& spec,
                         const CaptureTarget* capture) {
  if (spec.duration <= util::SimTime::zero()) {
    throw std::invalid_argument("run_experiment: duration must be positive");
  }
  const Testbed testbed = Testbed::table1();
  p2p::SwarmConfig config;
  config.profile = spec.profile;
  config.seed = spec.seed;
  config.duration = spec.duration;
  config.keep_records = spec.keep_records;
  config.impairment = spec.impairment;
  config.churn = spec.churn;
  config.discovery = spec.discovery;
  config.cancel = spec.cancel;
  // Series rows key on the journal's stable run identity so the PSTS
  // sidecar, the journal, and the flight-recorder dumps all agree on
  // what a "run" is.
  config.series_key = spec_id(spec);
  config.progress = spec.progress;

  // Mark the progress sink active for exactly the window observers may
  // trust it, and deactivate on every exit path (the watchdog must not
  // judge a dead attempt's frozen counters).
  struct ProgressGuard {
    obs::RunProgress* progress;
    explicit ProgressGuard(obs::RunProgress* p) : progress(p) {
      if (progress != nullptr) {
        progress->active.store(true, std::memory_order_release);
      }
    }
    ~ProgressGuard() {
      if (progress != nullptr) {
        progress->active.store(false, std::memory_order_release);
      }
    }
  } progress_guard{spec.progress};

  RunResult result;
  {
    // Per-application root span: every stage below lands under
    // "run.<app>/..." in the metrics sidecar and on the trace
    // timeline. The scope closes before the flush below so the
    // span's end event is part of the run it belongs to.
    obs::Span run_span{"run." + spec.profile.name};
    p2p::Swarm swarm{topo, testbed.probes(), std::move(config)};
    {
      PEERSCOPE_SPAN("simulate");
      swarm.run();
    }
    if (obs::enabled()) obs::counter("exp.experiments_run").add();
    if (spec.discovery.rejoin_deadline > util::SimTime::zero()) {
      const auto report = swarm.discovery_report();
      if (report.rejoins_missed > 0) {
        // Leave a flight-recorder anchor before unwinding: the
        // supervisor's ring-tail dump is how the post-mortem finds
        // which failover attempts preceded the miss.
        PEERSCOPE_TRACE_INSTANT("p2p.discovery.degraded");
        throw DiscoveryDegraded(report.rejoins_missed);
      }
    }
    if (capture != nullptr) write_capture(swarm, spec, *capture);
    result = {extract_observations(swarm), swarm.counters()};
  }
  // Run boundary = trace flush boundary: the ring's retained-event
  // and drop counts become per-run properties, independent of how
  // runs map onto pool threads (§5.6). A failed run skips this — the
  // supervisor dumps its ring tail first (flight recorder), then
  // flushes.
  obs::trace_flush();
  return result;
}

std::vector<RunResult> run_experiments(const net::AsTopology& topo,
                                       std::span<const RunSpec> specs,
                                       util::ThreadPool& pool) {
  // Workers is a configuration fact, not a counter: it lands in the
  // gauges section, which the deterministic export excludes (results
  // must not depend on it).
  obs::set_gauge("exp.pool_workers",
                 static_cast<double>(pool.worker_count()));
  std::vector<std::future<RunResult>> futures;
  futures.reserve(specs.size());
  for (const RunSpec& spec : specs) {
    futures.push_back(
        pool.submit([&topo, spec] { return run_experiment(topo, spec); }));
  }
  std::vector<RunResult> results;
  results.reserve(specs.size());
  // Drain every future before surfacing any failure: letting the first
  // get() rethrow would return with sibling runs still executing and
  // discard their results (the original first-exception abort bug).
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      results.push_back(f.get());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

std::vector<RunSpec> reproduction_specs(std::uint64_t seed,
                                        util::SimTime duration) {
  std::vector<RunSpec> specs;
  for (auto profile :
       {p2p::SystemProfile::pplive(), p2p::SystemProfile::sopcast(),
        p2p::SystemProfile::tvants(), p2p::SystemProfile::pplive_popular()}) {
    RunSpec spec;
    spec.profile = std::move(profile);
    spec.seed = seed;
    spec.duration = duration;
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace peerscope::exp
