// Supervised experiment execution: per-run isolation, retry with
// exponential backoff, wall-clock deadlines, and journal-backed
// crash-safe resume.
//
// The paper's 44-probe campaign lost probes and partial traces yet
// still produced per-application aggregates; supervise_runs gives the
// reproduction harness the same property. Each RunSpec executes in
// isolation on the thread pool: an exception is captured into that
// run's RunStatus instead of aborting the batch, failures are retried
// with exponential backoff + jitter, and a run that exceeds its
// deadline is cut off cooperatively (util::CancelToken polled at
// simulation-event granularity) and reported as timed-out. When a
// journal is configured, every terminal state is recorded durably and
// completed results are persisted, so a SIGKILLed batch rerun with
// resume=true skips finished specs and produces byte-identical output
// (DESIGN.md §10).
#pragma once

#include <chrono>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "util/thread_pool.hpp"

namespace peerscope::exp {

/// Terminal state of one spec's attempt chain.
enum class RunState {
  kOk,        // a fresh attempt succeeded
  kFailed,    // every attempt threw (non-cancellation)
  kTimedOut,  // the deadline cut the run off
  kSkipped,   // resume replayed a journaled result; nothing executed
};

[[nodiscard]] const char* to_string(RunState state);

struct RunStatus {
  std::string spec;  // spec_id() of the RunSpec
  RunState state = RunState::kFailed;
  /// Attempts actually executed this process (0 for kSkipped).
  int attempts = 0;
  std::string error;  // what() of the last failure, empty on success
  /// Present for kOk and kSkipped; absent means the app is missing
  /// from the batch and reports must mark it explicitly.
  std::optional<RunResult> result;
  [[nodiscard]] bool ok() const { return result.has_value(); }
};

struct SupervisorConfig {
  /// Extra attempts after the first failure (0 = fail fast).
  int retries = 0;
  /// Per-attempt wall-clock deadline in seconds; 0 disables. Enforced
  /// cooperatively between simulation events, so granularity is
  /// microseconds, not a hard preemption.
  double deadline_s = 0.0;
  /// First backoff before retry #1; doubles per retry, with ±25%
  /// deterministic-per-spec jitter so a batch of co-failing runs does
  /// not retry in lockstep.
  std::chrono::milliseconds backoff_base{200};
  /// Journal file; empty disables journaling and resume. Result blobs
  /// land next to it in `<journal>.d/`.
  std::filesystem::path journal;
  /// Replay the journal and skip specs with a completed, loadable
  /// result. With false, any existing journal is truncated first.
  bool resume = false;
  /// Execution hook for tests (fault injection without a real swarm);
  /// defaults to run_experiment.
  std::function<RunResult(const net::AsTopology&, const RunSpec&)> run_fn;
  /// Backoff jitter hook: maps (spec_seed, attempt) to a multiplier on
  /// the exponential delay. Defaults (when empty) to the deterministic
  /// 75–125% per-(spec, attempt) draw. Tests inject a constant (or a
  /// recording probe) to make retry timing exact instead of bounded.
  std::function<double(std::uint64_t, int)> backoff_jitter;
};

struct BatchOutcome {
  /// Aligned with the input specs.
  std::vector<RunStatus> runs;
  [[nodiscard]] std::size_t succeeded() const;  // kOk + kSkipped
  [[nodiscard]] std::size_t failed() const;     // kFailed + kTimedOut
  [[nodiscard]] bool complete() const { return failed() == 0; }
};

/// Backoff before retry `attempt` (1-based): base * 2^(attempt-1)
/// scaled by `jitter(spec_seed, attempt)` — or, with an empty jitter,
/// by a deterministic 75–125% per-(spec, attempt) draw, so co-failing
/// runs spread out and reruns behave identically. Exposed so tests
/// can pin the exact delay the supervisor will sleep.
[[nodiscard]] std::chrono::milliseconds backoff_delay(
    std::chrono::milliseconds base, std::uint64_t spec_seed, int attempt,
    const std::function<double(std::uint64_t, int)>& jitter = {});

/// Runs every spec under supervision; never throws for a failing run
/// (only for infrastructure errors such as an unwritable journal).
/// Counters land in the obs sidecar: exp.runs_ok / runs_failed /
/// runs_timed_out / runs_skipped / run_retries.
[[nodiscard]] BatchOutcome supervise_runs(const net::AsTopology& topo,
                                          std::span<const RunSpec> specs,
                                          util::ThreadPool& pool,
                                          const SupervisorConfig& config = {});

}  // namespace peerscope::exp
