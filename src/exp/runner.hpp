// Experiment runner: simulate -> capture -> extract observations.
//
// One RunSpec per (application, seed); run_experiments executes several
// concurrently on a thread pool (each Swarm is fully self-contained),
// which is how `reproduce` produces several applications' data in one
// pass. run_experiment is the one run body: `peerscope run` stores its
// capture through it too.
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "aware/experiment.hpp"
#include "net/topology.hpp"
#include "p2p/swarm.hpp"
#include "util/thread_pool.hpp"

namespace peerscope::exp {

struct CaptureTarget;  // exp/capture.hpp

struct RunSpec {
  p2p::SystemProfile profile;
  std::uint64_t seed = 42;
  util::SimTime duration = util::SimTime::seconds(300);
  bool keep_records = false;
  /// Fault injection (both disabled by default — the clean
  /// reproduction runs are byte-identical with or without this field).
  sim::ImpairmentSpec impairment;
  p2p::ChurnSpec churn;
  /// Discovery-subsystem configuration (backend selection, tracker
  /// outages, failover policy, NAT matrix, session dynamics). Disabled
  /// by default; when a rejoin deadline is set and any swarm misses it
  /// run_experiment throws DiscoveryDegraded.
  p2p::DiscoverySpec discovery;
  /// Cooperative cancellation token, polled between simulation events;
  /// run_experiment throws util::Cancelled when it trips. The
  /// supervisor arms one per attempt to enforce --deadline. nullptr =
  /// uncancellable. Must outlive the run.
  const util::CancelToken* cancel = nullptr;
  /// Live progress sink (obs/watchdog.hpp): run_experiment marks it
  /// active for the duration of the simulation and the engine/swarm
  /// publish events, sim time and the rejoin p99 into it. nullptr (the
  /// default) leaves the hot path untouched. Must outlive the run.
  obs::RunProgress* progress = nullptr;
};

struct RunResult {
  aware::ExperimentObservations observations;
  p2p::Swarm::Counters counters;
};

/// A run that completed the simulation but missed its discovery
/// re-join SLO: with a configured rejoin_deadline, at least one probe
/// failed to re-establish a partner set in time after a tracker
/// outage / zap. Distinct from a crash — the supervisor records it as
/// a failed run, and the CLI maps the message prefix to its own
/// "degraded" exit code.
class DiscoveryDegraded : public std::runtime_error {
 public:
  explicit DiscoveryDegraded(std::size_t rejoins_missed)
      : std::runtime_error("discovery degraded: " +
                           std::to_string(rejoins_missed) +
                           " re-join(s) missed the deadline") {}
};

/// Runs one experiment on the given (finalized) topology with the
/// Table I testbed and returns the extracted observations. With a
/// capture target (and spec.keep_records), the capture is written
/// after the simulation and the re-join check, before extraction
/// (exp/capture.hpp). Throws std::invalid_argument for a malformed
/// spec (non-positive duration) and util::Cancelled when the spec's
/// cancellation token trips.
[[nodiscard]] RunResult run_experiment(const net::AsTopology& topo,
                                       const RunSpec& spec,
                                       const CaptureTarget* capture = nullptr);

/// Extraction only (for callers that keep the Swarm alive).
[[nodiscard]] aware::ExperimentObservations extract_observations(
    const p2p::Swarm& swarm);

/// Runs several experiments concurrently; results align with `specs`.
/// Every future is drained before control returns: a throwing spec
/// never abandons its siblings mid-flight (their work completes and
/// their counters/sidecar entries land), then the first exception in
/// spec order is rethrown. Callers who need the surviving results
/// rather than all-or-nothing semantics use supervise_runs
/// (exp/supervisor.hpp).
[[nodiscard]] std::vector<RunResult> run_experiments(
    const net::AsTopology& topo, std::span<const RunSpec> specs,
    util::ThreadPool& pool);

/// The four runs `peerscope reproduce` makes: PPLive, SopCast and
/// TVAnts (the report's row order), then PPLive-Popular for Figure 2's
/// fourth panel.
[[nodiscard]] std::vector<RunSpec> reproduction_specs(std::uint64_t seed,
                                                      util::SimTime duration);

}  // namespace peerscope::exp
