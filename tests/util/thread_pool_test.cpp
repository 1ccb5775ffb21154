#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace peerscope::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool{2};
  auto f = pool.submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
  ThreadPool pool{0};
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool{4};
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ExceptionsPropagateThroughFuture) {
  ThreadPool pool{1};
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)f.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsOutstandingTasks) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool{1};
    for (int i = 0; i < 32; ++i) {
      // Futures deliberately dropped: teardown alone must run the
      // whole queue (drain semantics), not just the in-flight task.
      (void)pool.submit([&completed] { ++completed; });
    }
  }
  EXPECT_EQ(completed.load(), 32);
}

TEST(ThreadPool, TasksThrowingDuringTeardownAreContained) {
  std::atomic<int> started{0};
  {
    ThreadPool pool{1};
    for (int i = 0; i < 16; ++i) {
      (void)pool.submit([&started]() {
        ++started;
        throw std::runtime_error("boom during drain");
      });
    }
    // Destructor begins with most tasks still queued; each exception
    // is swallowed by its abandoned future rather than terminating.
  }
  EXPECT_EQ(started.load(), 16);
}

TEST(ThreadPool, ShutdownTokenRequestedAtTeardown) {
  std::atomic<bool> observed_shutdown{false};
  {
    ThreadPool pool{1};
    EXPECT_FALSE(pool.shutdown_token().cancelled());
    (void)pool.submit([&pool, &observed_shutdown] {
      // Cooperative long-runner: spins until teardown requests the
      // shutdown token, which must happen before workers are joined —
      // otherwise this destructor would deadlock.
      while (!pool.shutdown_token().cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
      }
      observed_shutdown = true;
    });
  }
  EXPECT_TRUE(observed_shutdown.load());
}

TEST(ThreadPool, TasksReturningValuesKeepOrderPerFuture) {
  ThreadPool pool{3};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

}  // namespace
}  // namespace peerscope::util
