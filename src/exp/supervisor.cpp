#include "exp/supervisor.hpp"

#include <algorithm>
#include <future>
#include <iostream>
#include <thread>

#include "exp/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cancel.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace peerscope::exp {

std::chrono::milliseconds backoff_delay(
    std::chrono::milliseconds base, std::uint64_t spec_seed, int attempt,
    const std::function<double(std::uint64_t, int)>& jitter) {
  double factor = 0.0;
  if (jitter) {
    factor = jitter(spec_seed, attempt);
  } else {
    constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
    util::Rng rng{spec_seed ^
                  (kGolden * static_cast<std::uint64_t>(attempt))};
    factor = 0.75 + 0.5 * rng.uniform01();
  }
  const double scale = static_cast<double>(1LL << std::min(attempt - 1, 16));
  const double ms = static_cast<double>(base.count()) * scale * factor;
  return std::chrono::milliseconds{static_cast<std::int64_t>(ms)};
}

namespace {

/// Flight recorder: when a TraceRecorder is installed (obs/trace.hpp)
/// and the batch is journaled, a failed or timed-out spec dumps the
/// newest this-many trace events of its final attempt into
/// `<journal>.d/<spec>.trace.json` next to its journal entry — a
/// post-mortem timeline for exactly the runs that need one.
constexpr std::size_t kFlightRecorderEvents = 512;

/// Sleeps in short slices so pool teardown (shutdown_token) cuts a
/// pending backoff short instead of stalling the destructor.
void interruptible_sleep(std::chrono::milliseconds total,
                         const util::CancelToken& shutdown) {
  using namespace std::chrono;
  const auto deadline = steady_clock::now() + total;
  while (steady_clock::now() < deadline) {
    if (shutdown.cancelled()) return;
    const auto left =
        duration_cast<milliseconds>(deadline - steady_clock::now());
    std::this_thread::sleep_for(std::min(left, milliseconds{20}));
  }
}

}  // namespace

const char* to_string(RunState state) {
  switch (state) {
    case RunState::kOk:
      return "ok";
    case RunState::kFailed:
      return "failed";
    case RunState::kTimedOut:
      return "timed_out";
    case RunState::kSkipped:
      return "skipped";
  }
  return "unknown";
}

std::size_t BatchOutcome::succeeded() const {
  return static_cast<std::size_t>(
      std::count_if(runs.begin(), runs.end(),
                    [](const RunStatus& r) { return r.ok(); }));
}

std::size_t BatchOutcome::failed() const {
  return runs.size() - succeeded();
}

BatchOutcome supervise_runs(const net::AsTopology& topo,
                            std::span<const RunSpec> specs,
                            util::ThreadPool& pool,
                            const SupervisorConfig& config) {
  obs::set_gauge("exp.pool_workers",
                 static_cast<double>(pool.worker_count()));
  const auto run_fn =
      config.run_fn
          ? config.run_fn
          : [](const net::AsTopology& t, const RunSpec& s) {
              return run_experiment(t, s);
            };

  const bool journaled = !config.journal.empty();
  const std::filesystem::path blob_dir =
      journaled ? std::filesystem::path{config.journal.string() + ".d"}
                : std::filesystem::path{};
  std::map<std::string, JournalEntry> replayed;
  if (journaled) {
    if (config.resume) {
      replayed = journal_replay(config.journal);
      if (!std::filesystem::exists(config.journal)) {
        journal_begin(config.journal);
      }
    } else {
      journal_begin(config.journal);
    }
    std::filesystem::create_directories(blob_dir);
  }

  BatchOutcome outcome;
  outcome.runs.resize(specs.size());
  util::Mutex journal_mutex;

  std::vector<std::future<void>> futures;
  futures.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    RunStatus& status = outcome.runs[i];
    const RunSpec& spec = specs[i];
    status.spec = spec_id(spec);

    // Resume: a journaled "ok" whose blob still loads is not rerun.
    // Anything else — failed, timed out, or an ok entry whose blob was
    // lost — goes through the full attempt chain again.
    if (const auto it = replayed.find(status.spec); it != replayed.end()) {
      if (it->second.state == "ok" && !it->second.artifact.empty()) {
        if (auto result = read_run_result(blob_dir / it->second.artifact)) {
          status.state = RunState::kSkipped;
          status.attempts = 0;
          status.result = std::move(result);
          if (obs::enabled()) obs::counter("exp.runs_skipped").add();
          continue;
        }
      }
    }

    futures.push_back(pool.submit([&topo, &spec, &status, &run_fn, &config,
                                   &pool, &journal_mutex, &blob_dir,
                                   journaled] {
      const int max_attempts = 1 + std::max(0, config.retries);
      for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        PEERSCOPE_TRACE_INSTANT("exp.run_attempt");
        util::CancelToken token;
        if (config.deadline_s > 0) {
          token.set_deadline_after(std::chrono::nanoseconds{
              static_cast<std::int64_t>(config.deadline_s * 1e9)});
        }
        RunSpec attempt_spec = spec;
        attempt_spec.cancel = &token;
        try {
          RunResult result = run_fn(topo, attempt_spec);
          status.state = RunState::kOk;
          status.attempts = attempt;
          status.error.clear();
          status.result = std::move(result);
          if (obs::enabled()) obs::counter("exp.runs_ok").add();
          break;
        } catch (const util::Cancelled& cancelled) {
          // A deadline overrun is a property of the spec at this
          // scale, not a transient fault: retrying would burn another
          // full deadline for the same outcome, so report and move on.
          status.state = RunState::kTimedOut;
          status.attempts = attempt;
          status.error = cancelled.what();
          PEERSCOPE_TRACE_INSTANT("exp.run_timed_out");
          if (obs::enabled()) obs::counter("exp.runs_timed_out").add();
          break;
        } catch (const std::exception& error) {
          status.state = RunState::kFailed;
          status.attempts = attempt;
          status.error = error.what();
          if (attempt < max_attempts) {
            if (obs::enabled()) obs::counter("exp.run_retries").add();
            // Move this attempt's events into the central store so
            // the ring — and therefore a later flight dump — holds
            // only the final attempt.
            obs::trace_flush();
            interruptible_sleep(
                backoff_delay(config.backoff_base, spec.seed, attempt,
                              config.backoff_jitter),
                pool.shutdown_token());
          } else {
            PEERSCOPE_TRACE_INSTANT("exp.run_failed");
            if (obs::enabled()) obs::counter("exp.runs_failed").add();
          }
        }
      }

      // Flight recorder: dump the ring tail of a run that just died,
      // then flush. A successful run_experiment already flushed its
      // own events; the flush here covers failed runs and custom
      // run_fn hooks so event accounting stays per-run at any pool
      // size.
      const bool terminal_failure = status.state == RunState::kFailed ||
                                    status.state == RunState::kTimedOut;
      if (journaled && terminal_failure) {
        if (obs::TraceRecorder* recorder = obs::tracer()) {
          try {
            obs::TraceSnapshot tail;
            tail.events = recorder->recent_events(kFlightRecorderEvents);
            obs::write_trace_json(blob_dir / spec_flight_name(status.spec),
                                  tail);
          } catch (const std::exception& error) {
            std::cerr << "supervisor: flight-recorder dump failed for "
                      << status.spec << ": " << error.what() << '\n';
          }
        }
      }
      obs::trace_flush();

      if (!journaled) return;
      JournalEntry entry;
      entry.spec = status.spec;
      entry.state = to_string(status.state);
      entry.attempts = status.attempts;
      entry.error = status.error;
      try {
        if (status.state == RunState::kOk) {
          entry.artifact = spec_artifact_name(status.spec);
          // Blob first, journal line second: an "ok" line on disk
          // always points at a complete, already-renamed blob.
          // NOLINTNEXTLINE(bugprone-unchecked-optional-access): state == kOk implies result is engaged (set together in the run loop)
          write_run_result(blob_dir / entry.artifact, *status.result);
        }
        const util::MutexLock lock{journal_mutex};
        journal_append(config.journal, entry);
      } catch (const std::exception& error) {
        // Journal trouble must not demote a completed run: the result
        // is in memory and this batch's report still includes it. The
        // spec merely loses resumability.
        std::cerr << "supervisor: journal write failed for " << status.spec
                  << ": " << error.what() << '\n';
      }
    }));
  }

  // Drain everything; task bodies capture their own failures, so a
  // throw here is an infrastructure bug worth surfacing.
  for (auto& f : futures) f.get();
  return outcome;
}

}  // namespace peerscope::exp
