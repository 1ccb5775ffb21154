// Discrete-event simulation engine.
//
// A single-threaded calendar-queue scheduler with a total event order:
// ties on timestamp break on insertion sequence, so a given seed always
// replays the exact same execution (DESIGN.md §5.1, §14). Parallelism
// lives one level up — independent experiments each own an Engine.
//
// Hot-path layout (DESIGN.md §14): timestamps live in a CalendarQueue
// (O(1) amortized push/pop), callbacks live inline in slab-allocated
// EventNodes (no per-event heap traffic), and a Handle is an
// {index, seq} pair validated in O(1) — the binary heap and the
// unordered_map of std::functions this replaces cost two mallocs and
// an O(log n) sift per event.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "sim/calendar_queue.hpp"
#include "sim/event_pool.hpp"
#include "util/cancel.hpp"
#include "util/sim_time.hpp"

namespace peerscope::obs {
struct RunProgress;
}  // namespace peerscope::obs

namespace peerscope::sim {

class Engine {
 public:
  /// Interop alias: any callable invocable as `void()` schedules
  /// directly (stored inline when it fits, see event_pool.hpp); this
  /// alias remains for signatures that need a named owning type.
  using Callback = std::function<void()>;

  /// Identifies a scheduled event for cancellation. Value-semantic;
  /// outliving the engine is harmless (cancel just returns false).
  class Handle {
   public:
    Handle() = default;
    [[nodiscard]] bool valid() const { return seq_ != 0; }

   private:
    friend class Engine;
    Handle(std::uint32_t node, std::uint64_t seq)
        : node_(node), seq_(seq) {}
    std::uint32_t node_ = 0;
    std::uint64_t seq_ = 0;  // 0 = null handle
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] util::SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Schedules `fn` at absolute time `at`; scheduling in the past
  /// (before now()) is a logic error and throws. A null target —
  /// nullptr, an empty std::function, a null function pointer —
  /// throws std::invalid_argument.
  template <typename F>
  Handle schedule_at(util::SimTime at, F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, std::nullptr_t>) {
      (void)at;
      throw std::invalid_argument("Engine: null callback");
    } else {
      static_assert(std::is_invocable_v<D&>,
                    "Engine callbacks take no arguments");
      if (at < now_) {
        throw std::logic_error("Engine: scheduling into the past");
      }
      if constexpr (requires(const D& f) { f == nullptr; }) {
        if (fn == nullptr) {
          throw std::invalid_argument("Engine: null callback");
        }
      }
      const std::uint32_t index = pool_.allocate();
      EventNode& node = pool_[index];
      try {
        EventPool::emplace(node, std::forward<F>(fn));
        queue_.push(at.ns(), next_seq_, index);
      } catch (...) {
        if (node.ops != nullptr) EventPool::discard(node);
        pool_.release(index);
        throw;
      }
      const std::uint64_t seq = next_seq_++;
      node.at = at.ns();
      node.seq = seq;
      ++live_;
      return Handle{index, seq};
    }
  }

  /// Schedules `fn` after a non-negative delay from now().
  template <typename F>
  Handle schedule_after(util::SimTime delay, F&& fn) {
    if (delay < util::SimTime::zero()) {
      throw std::logic_error("Engine: negative delay");
    }
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event. Returns false if the event already ran,
  /// was already cancelled, or the handle is null. O(1): the queue
  /// entry stays behind and is skipped when popped (its seq no longer
  /// matches the node's).
  bool cancel(Handle handle) {
    if (handle.seq_ == 0 || handle.node_ >= pool_.capacity()) return false;
    EventNode& node = pool_[handle.node_];
    if (node.seq != handle.seq_ || node.ops == nullptr) return false;
    EventPool::discard(node);
    pool_.release(handle.node_);
    --live_;
    return true;
  }

  /// Installs a cancellation token polled between events (every
  /// kCancelStride executed events, so a deadline lands at simulation-
  /// event granularity); run_until throws util::Cancelled when it
  /// trips. nullptr (the default) disables polling entirely — the
  /// uncancellable fast path is byte-identical to builds without this
  /// hook. The token must outlive the run.
  void set_cancel(const util::CancelToken* token) noexcept {
    cancel_ = token;
  }

  /// Poll stride for the cancellation token: coarse enough that the
  /// steady-clock read in deadline checks never shows up in profiles,
  /// fine enough that a deadline cuts a run off within microseconds:
  /// once a token trips, the loop notices within this many executed
  /// events (tests/exp/supervisor_test.cpp:CancelPollStride).
  static constexpr std::uint64_t kCancelStride = 256;

  /// Installs a sim-time sampling hook: `fn(index, at)` fires once
  /// per grid point `at = k·interval` (k = 1, 2, …), after every
  /// event with timestamp ≤ at has executed and before any event
  /// after it — so the sample points, like the events themselves, are
  /// a pure function of (seed, configuration) and independent of the
  /// thread-pool size (§5.6). Grid points up to a finite run horizon
  /// fire even when the queue drains early; a cancelled run stops
  /// sampling where it stopped executing. Pass a zero interval or
  /// null fn to uninstall — the default, where the per-event cost is
  /// one integer compare.
  void set_sampler(util::SimTime interval,
                   std::function<void(std::uint64_t, util::SimTime)> fn) {
    if (interval <= util::SimTime::zero() || fn == nullptr) {
      sample_interval_ns_ = 0;
      sampler_ = nullptr;
      return;
    }
    sample_interval_ns_ = interval.ns();
    next_sample_ns_ = now_.ns() + interval.ns();
    sample_index_ = 0;
    sampler_ = std::move(fn);
  }

  /// Installs a live progress sink: executed-event count and sim time
  /// are published with relaxed stores at the cancel-poll stride so a
  /// watchdog or status reporter on another thread can read them.
  /// nullptr (the default) keeps the loop free of the stores. The
  /// sink must outlive the run.
  void set_progress(obs::RunProgress* progress) noexcept {
    progress_ = progress;
  }

  /// Sample stride for trace checkpoints (power of two; the loop
  /// tests `executed_ & (stride - 1)`): every 2^16 executed events
  /// the tracer — when installed — gets a sim.events_executed counter
  /// sample, giving the timeline a deterministic progress pulse.
  static constexpr std::uint64_t kTraceCheckpointStride = std::uint64_t{1}
                                                          << 16;

  /// Runs events until the queue drains or the next event would fire
  /// after `horizon`; `now()` ends at the later of its old value and
  /// the last executed event time (never past the horizon). Events
  /// scheduled exactly at the horizon still run. Throws
  /// util::Cancelled when an installed cancellation token trips.
  void run_until(util::SimTime horizon);

  /// Runs until the queue drains.
  void run() { run_until(util::SimTime::max()); }

 private:
  util::SimTime now_{0};
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;  // scheduled, not yet run or cancelled
  const util::CancelToken* cancel_ = nullptr;
  obs::RunProgress* progress_ = nullptr;
  std::int64_t sample_interval_ns_ = 0;  // 0 = sampling off
  std::int64_t next_sample_ns_ = 0;
  std::uint64_t sample_index_ = 0;
  std::function<void(std::uint64_t, util::SimTime)> sampler_;
  CalendarQueue queue_;
  EventPool pool_;
};

}  // namespace peerscope::sim
