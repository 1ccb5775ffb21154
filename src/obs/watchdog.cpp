#include "obs/watchdog.hpp"

#include <cstdio>

#include "obs/metrics.hpp"

namespace peerscope::obs {

namespace {

std::string format_rate(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", rate);
  return buf;
}

}  // namespace

Watchdog::Watchdog(SloSpec spec, RunProgress* progress,
                   util::CancelToken* token)
    : spec_(spec), progress_(progress), token_(token) {
  if (spec_.sustain < 1) spec_.sustain = 1;
  if (spec_.poll.count() < 1) spec_.poll = std::chrono::milliseconds{1};
  thread_ = std::thread([this] { run(); });
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) {
    thread_.join();
  }
}

void Watchdog::trip(std::string reason) {
  reason_ = std::move(reason);
  tripped_.store(true, std::memory_order_release);
  PEERSCOPE_METRIC_INC("watchdog.trips");
  token_->request();
}

void Watchdog::run() {
  using Clock = std::chrono::steady_clock;

  bool watching = false;       // inside an active attempt
  bool have_window = false;    // a previous poll to delta against
  std::uint64_t prev_events = 0;
  Clock::time_point prev_at{};
  std::int64_t last_sim_ns = 0;
  Clock::time_point last_advance{};
  int rate_strikes = 0;
  int rejoin_strikes = 0;

  while (!stop_.load(std::memory_order_relaxed) &&
         !tripped_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(spec_.poll);
    if (!progress_->active.load(std::memory_order_relaxed)) {
      watching = false;
      continue;
    }
    const auto now = Clock::now();
    const std::uint64_t events =
        progress_->events.load(std::memory_order_relaxed);
    const std::int64_t sim_ns =
        progress_->sim_time_ns.load(std::memory_order_relaxed);
    if (!watching) {
      watching = true;
      have_window = false;
      prev_events = events;
      prev_at = now;
      last_sim_ns = sim_ns;
      last_advance = now;
      rate_strikes = 0;
      rejoin_strikes = 0;
      continue;
    }

    // Sim-time stall: the engine publishes progress every 256 events,
    // so sim time frozen across the window means no event is landing.
    if (sim_ns > last_sim_ns) {
      last_sim_ns = sim_ns;
      last_advance = now;
    } else if (spec_.stall_window_s > 0) {
      const double stalled_s =
          std::chrono::duration<double>(now - last_advance).count();
      if (stalled_s >= spec_.stall_window_s) {
        PEERSCOPE_METRIC_INC("watchdog.violations");
        trip("sim time stalled at " + std::to_string(last_sim_ns) +
             "ns for " + format_rate(stalled_s) + "s");
        return;
      }
    }

    // Throughput floor, on per-window deltas so a slow start does not
    // poison the whole run's average.
    const double window_s =
        std::chrono::duration<double>(now - prev_at).count();
    if (spec_.events_per_s_floor > 0 && have_window && window_s > 0) {
      const double rate =
          static_cast<double>(events - prev_events) / window_s;
      if (rate < spec_.events_per_s_floor) {
        PEERSCOPE_METRIC_INC("watchdog.violations");
        if (++rate_strikes >= spec_.sustain) {
          trip("events/s " + format_rate(rate) + " below floor " +
               format_rate(spec_.events_per_s_floor) + " for " +
               std::to_string(rate_strikes) + " windows");
          return;
        }
      } else {
        rate_strikes = 0;
      }
    }
    prev_events = events;
    prev_at = now;
    have_window = true;

    // Rejoin-latency ceiling (cumulative p99 published by the swarm's
    // sampling hook; -1 until discovery has produced a rejoin).
    const std::int64_t p99 =
        progress_->rejoin_p99_ns.load(std::memory_order_relaxed);
    if (spec_.rejoin_p99_ceiling_ns > 0 && p99 >= 0) {
      if (p99 > spec_.rejoin_p99_ceiling_ns) {
        PEERSCOPE_METRIC_INC("watchdog.violations");
        if (++rejoin_strikes >= spec_.sustain) {
          trip("discovery rejoin p99 " + std::to_string(p99) +
               "ns above ceiling " +
               std::to_string(spec_.rejoin_p99_ceiling_ns) + "ns for " +
               std::to_string(rejoin_strikes) + " windows");
          return;
        }
      } else {
        rejoin_strikes = 0;
      }
    }
  }
}

}  // namespace peerscope::obs
