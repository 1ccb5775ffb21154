// Live batch introspection: an atomically-rewritten status.json.
//
// A 181k-peer batch is a black box between launch and exit unless the
// supervisor publishes where it is. StatusReporter owns a background
// thread that periodically renders every run's live state — supervisor
// phase, attempt count, events executed, sim time, events/s, ETA —
// into `peerscope.status/1` JSON and atomically replaces the status
// file (rename, non-durable: a stale status after a crash is
// harmless, and fsyncing four times a second is not). `peerscope
// watch` tails that file from another process; because every rewrite
// is a rename, a reader never observes a torn document.
//
// The task threads never block for the reporter: each run's LiveRun
// is all-atomic, written with relaxed stores from the run loop and
// the engine's progress hook, read by the reporter thread alone.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/watchdog.hpp"

namespace peerscope::exp {

inline constexpr const char* kStatusSchema = "peerscope.status/1";

/// One run's live, lock-free state. The strings are immutable after
/// construction; everything mutable is atomic, so the reporter thread
/// reads concurrently with the task thread without a lock (and under
/// TSan).
struct LiveRun {
  /// state values: kPending / kRunning, or static_cast<int> of the
  /// terminal exp::RunState once the attempt chain resolves.
  static constexpr int kPending = -1;
  static constexpr int kRunning = -2;

  LiveRun(std::string spec_id, double run_duration_s)
      : spec(std::move(spec_id)), duration_s(run_duration_s) {}

  const std::string spec;
  const double duration_s;
  obs::RunProgress progress;
  std::atomic<int> state{kPending};
  std::atomic<int> attempts{0};
};

/// Background status.json writer. Add every run before start(); the
/// LiveRun references stay stable (deque) for the batch's lifetime.
class StatusReporter {
 public:
  explicit StatusReporter(
      std::filesystem::path path,
      std::chrono::milliseconds poll = std::chrono::milliseconds{250});
  ~StatusReporter();

  StatusReporter(const StatusReporter&) = delete;
  StatusReporter& operator=(const StatusReporter&) = delete;

  /// Registers a run; call only before start().
  LiveRun& add_run(std::string spec_id, double run_duration_s);

  /// Writes the first snapshot and starts the rewrite thread.
  void start();

  /// Joins the thread and writes the final "done" snapshot.
  /// Idempotent; the destructor calls it.
  void stop();

 private:
  void run();
  [[nodiscard]] std::string render(std::string_view phase);

  std::filesystem::path path_;
  std::chrono::milliseconds poll_;
  std::deque<LiveRun> runs_;
  /// events/s baselines, reporter-thread-only (render is also called
  /// from start/stop, strictly before the thread exists / after it
  /// joined).
  struct Baseline {
    std::uint64_t events = 0;
    std::int64_t sim_ns = 0;
    std::chrono::steady_clock::time_point at{};
    double events_per_s = 0;
    double sim_rate = 0;  // sim seconds per wall second
    bool primed = false;
  };
  std::vector<Baseline> baselines_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread thread_;
};

/// Parsed view of one status.json document (the watch subcommand and
/// tests read through this instead of scraping JSON).
struct StatusRunView {
  std::string spec;
  std::string state;
  int attempts = 0;
  std::uint64_t events = 0;
  double sim_time_s = 0;
  double events_per_s = 0;
  /// Estimated wall seconds to finish; -1 when unknown (not running,
  /// or no sim-rate sample yet).
  double eta_s = -1;
};

struct StatusView {
  std::string phase;  // "running" | "done"
  std::vector<StatusRunView> runs;
};

/// Parses a document written by StatusReporter, through the
/// util::json flat reader (DESIGN.md §9). Returns nullopt when the
/// schema is foreign or missing, or a field is absent or torn.
[[nodiscard]] std::optional<StatusView> parse_status(std::string_view doc);

}  // namespace peerscope::exp
