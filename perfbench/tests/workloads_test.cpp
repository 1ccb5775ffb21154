// The benchmark's own contract: a workload's counts are a function of
// its seed alone (two runs, and pool sizes 1 and 4, agree: DESIGN.md
// §5.6), and an end-to-end iteration runs with instrumentation off.
#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Iteration;
using perfbench::Options;
using perfbench::Workload;

Options short_options(Workload workload) {
  Options options;
  options.workload = workload;
  options.seed = 7;
  options.sim_seconds = 60;
  // ctest runs in the build tree, which keeps the scratch out of /tmp.
  options.scratch = std::filesystem::current_path() /
                    ("perfbench_test_" + std::to_string(::getpid()));
  return options;
}

struct Traced {
  Iteration iteration;
  peerscope::obs::MetricsSnapshot metrics;
  std::size_t trace_events = 0;
};

Traced run_traced(const Options& options) {
  peerscope::obs::MetricsRegistry registry;
  peerscope::obs::TraceRecorder recorder;
  peerscope::obs::install(&registry);
  peerscope::obs::install_tracer(&recorder);
  Traced out{perfbench::run_iteration(options, false), {}, 0};
  peerscope::obs::install_tracer(nullptr);
  peerscope::obs::install(nullptr);
  out.metrics = registry.snapshot();
  out.trace_events = recorder.snapshot().events.size();
  return out;
}

TEST(Workloads, ReproduceCountsRepeatAcrossRunsAndPoolSizes) {
  auto options = short_options(Workload::kReproduce);
  options.pool_workers = 4;
  const Traced first = run_traced(options);
  const Traced second = run_traced(options);
  options.pool_workers = 1;
  const Traced serial = run_traced(options);
  std::filesystem::remove_all(options.scratch);

  for (const Traced* run : {&first, &second, &serial}) {
    ASSERT_EQ(run->iteration.failure, "");
    EXPECT_TRUE(run->iteration.instrumented);
  }
  EXPECT_GT(first.metrics.counters.at("sim.events_executed"), 0U);
  EXPECT_GT(first.metrics.counters.at("trace.packets_captured"), 0U);
  EXPECT_EQ(first.metrics.counters, second.metrics.counters);
  EXPECT_EQ(first.metrics.counters, serial.metrics.counters);
  EXPECT_EQ(first.trace_events, second.trace_events);
  EXPECT_EQ(first.trace_events, serial.trace_events);
  EXPECT_EQ(first.iteration.digest, second.iteration.digest);
  EXPECT_EQ(first.iteration.digest, serial.iteration.digest);
  EXPECT_EQ(first.iteration.packets, serial.iteration.packets);
}

TEST(Workloads, CaptureRecordCountsRepeat) {
  const auto options = short_options(Workload::kCapture);
  const Iteration first = perfbench::run_iteration(options, true);
  const Iteration second = perfbench::run_iteration(options, false);
  std::filesystem::remove_all(options.scratch);

  ASSERT_EQ(first.failure, "");
  ASSERT_EQ(second.failure, "");
  EXPECT_GT(first.layers.at("trace.records"), 0.0);
  EXPECT_EQ(first.layers.at("trace.records"), second.layers.at("trace.records"));
  EXPECT_EQ(first.layers.at("trace.bytes_written"),
            second.layers.at("trace.bytes_written"));
  EXPECT_EQ(first.digest, second.digest);
}

TEST(Workloads, EndToEndIterationRunsUninstrumented) {
  const auto options = short_options(Workload::kFaults);
  ASSERT_FALSE(peerscope::obs::enabled());
  ASSERT_FALSE(peerscope::obs::trace_enabled());
  const Iteration it = perfbench::run_iteration(options, false);
  std::filesystem::remove_all(options.scratch);
  EXPECT_FALSE(it.instrumented);
  EXPECT_GT(it.wall_s, 0.0);
  EXPECT_GT(it.setup_s, 0.0);
}

TEST(Workloads, ParseRoundTrips) {
  for (const auto w : {Workload::kReproduce, Workload::kFullscale,
                       Workload::kCapture, Workload::kFaults}) {
    EXPECT_EQ(perfbench::parse_workload(perfbench::to_string(w)), w);
  }
  EXPECT_FALSE(perfbench::parse_workload("unknown").has_value());
}

}  // namespace
