// Cooperative cancellation.
//
// A CancelToken is a shared flag plus an optional wall-clock deadline.
// Producers (the experiment supervisor, ThreadPool teardown) request
// cancellation or arm a deadline; consumers (the simulation event
// loop) poll cancelled() at a granularity they choose and unwind by
// throwing util::Cancelled. Nothing is preempted: a run that never
// polls is never interrupted, which is exactly the contract the
// deterministic simulator needs — cancellation can only land between
// events, never inside one.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace peerscope::util {

/// Thrown by cancellation poll sites; the supervisor maps it to the
/// timed-out / cancelled run states rather than a generic failure.
class Cancelled : public std::runtime_error {
 public:
  explicit Cancelled(const std::string& what) : std::runtime_error(what) {}
};

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation; idempotent, callable from any thread.
  void request() noexcept { flag_.store(true, std::memory_order_relaxed); }

  /// Arms (or re-arms) a deadline `after` from now on the steady
  /// clock; cancelled() starts returning true once it passes.
  void set_deadline_after(std::chrono::nanoseconds after) noexcept {
    const auto at = std::chrono::steady_clock::now() + after;
    deadline_ns_.store(at.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }

  /// True once request() was called or an armed deadline has passed.
  /// A relaxed load plus (when a deadline is armed) one steady-clock
  /// read — cheap enough to poll every few hundred simulation events.
  [[nodiscard]] bool cancelled() const noexcept {
    if (flag_.load(std::memory_order_relaxed)) return true;
    const std::int64_t deadline =
        deadline_ns_.load(std::memory_order_relaxed);
    if (deadline == kNoDeadline) return false;
    return std::chrono::steady_clock::now().time_since_epoch().count() >=
           deadline;
  }

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::min();
  std::atomic<bool> flag_{false};
  std::atomic<std::int64_t> deadline_ns_{kNoDeadline};
};

}  // namespace peerscope::util
