// Live run progress and the declarative SLO watchdog (DESIGN.md §17).
//
// RunProgress is the one-way publication channel out of a running
// simulation: the engine stores events-executed and sim-time into it
// at the cancel-poll stride (relaxed atomics, a handful of stores per
// 256 events), the swarm adds the discovery rejoin-latency p99, and
// anything on another thread — the status reporter, the watchdog —
// reads without touching engine state.
//
// Watchdog turns declarative service-level objectives (events/s
// floor, sim-time stall window, rejoin-latency p99 ceiling) into
// enforcement: a background thread polls RunProgress, counts
// consecutive violating windows, and on a sustained violation records
// metrics and requests cancellation on the run's CancelToken. The
// supervisor distinguishes a watchdog trip from an ordinary deadline
// via tripped(), records the `watchdog.slo_violation` instant on the
// run's own thread and maps it to kExitSloViolation=10 with a
// flight-recorder dump — the run dies with a diagnosis instead of
// hanging in a black box.
//
// The watchdog can only interrupt a run that polls its token; a
// callback wedged *inside* one event is beyond cooperative
// cancellation (the same contract as deadlines, util/cancel.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "util/cancel.hpp"

namespace peerscope::obs {

/// Shared progress snapshot for one run attempt. All-atomic so the
/// publishing engine thread and any number of observer threads never
/// need a lock; values are monotone within an attempt and reset()
/// between attempts.
struct RunProgress {
  std::atomic<std::uint64_t> events{0};
  std::atomic<std::int64_t> sim_time_ns{0};
  /// Cumulative p99 of p2p.discovery rejoin latency, ns; -1 until the
  /// first rejoin sample lands.
  std::atomic<std::int64_t> rejoin_p99_ns{-1};
  /// True while an attempt is between engine start and finish;
  /// observers must ignore the other fields when false.
  std::atomic<bool> active{false};

  void reset() noexcept {
    events.store(0, std::memory_order_relaxed);
    sim_time_ns.store(0, std::memory_order_relaxed);
    rejoin_p99_ns.store(-1, std::memory_order_relaxed);
    active.store(false, std::memory_order_relaxed);
  }
};

/// Declarative SLOs; a zero threshold disables that objective. Floor
/// and ceiling violations must persist for `sustain` consecutive poll
/// windows before tripping (one slow window is noise); a sim-time
/// stall trips as soon as no event has advanced sim time for
/// `stall_window_s` wall seconds, because the engine publishes
/// progress every 256 events even when sim time crawls — silence that
/// long means the run is wedged.
struct SloSpec {
  double events_per_s_floor = 0;
  double stall_window_s = 0;
  std::int64_t rejoin_p99_ceiling_ns = 0;
  int sustain = 3;
  std::chrono::milliseconds poll{200};

  [[nodiscard]] bool enabled() const noexcept {
    return events_per_s_floor > 0 || stall_window_s > 0 ||
           rejoin_p99_ceiling_ns > 0;
  }
};

/// Watches one RunProgress against one SloSpec for the lifetime of
/// the object. On sustained violation: watchdog.* metrics,
/// token->request(), and tripped()/reason() latch for the supervisor
/// to inspect after the run unwinds.
class Watchdog {
 public:
  Watchdog(SloSpec spec, RunProgress* progress, util::CancelToken* token);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Joins the poll thread. Idempotent; the destructor calls it.
  void stop();

  /// True once an SLO violation was sustained and the token tripped.
  [[nodiscard]] bool tripped() const noexcept {
    return tripped_.load(std::memory_order_acquire);
  }

  /// Human-readable violation, e.g. "events/s 1200 below floor 50000
  /// for 3 windows". Empty until tripped() — and only stable to read
  /// once tripped() returned true.
  [[nodiscard]] const std::string& reason() const noexcept {
    return reason_;
  }

 private:
  void run();
  void trip(std::string reason);

  SloSpec spec_;
  RunProgress* progress_;
  util::CancelToken* token_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> tripped_{false};
  std::string reason_;  // written once before tripped_ releases
  std::thread thread_;
};

}  // namespace peerscope::obs
