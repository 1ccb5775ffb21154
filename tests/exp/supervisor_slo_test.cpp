// Supervisor-level SLO watchdog wiring and the §5.6 pool-size
// independence of the time-series sidecar: a sustained violation is
// terminal (no retry burn-down), dumps the flight recorder, and the
// series a batch records is byte-identical at any thread-pool width.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/journal.hpp"
#include "exp/status.hpp"
#include "exp/supervisor.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/trace_summary.hpp"
#include "support/scratch_dir.hpp"
#include "util/cancel.hpp"

namespace peerscope::exp {
namespace {

using std::chrono::milliseconds;
using util::SimTime;

const net::AsTopology& topo() {
  static const net::AsTopology t = net::make_reference_topology();
  return t;
}

RunSpec tiny_spec(std::uint64_t seed = 1) {
  RunSpec spec;
  spec.profile = p2p::SystemProfile::tvants();
  spec.profile.population.background_peers = 120;
  spec.seed = seed;
  spec.duration = SimTime::seconds(25);
  return spec;
}

RunResult fake_result(std::uint64_t marker) {
  RunResult result;
  result.observations.app = "FakeApp";
  result.observations.duration = SimTime::seconds(1);
  result.counters.chunks_delivered = marker;
  return result;
}

/// run_fn stand-in that behaves like a starving swarm: it publishes
/// live progress far below any reasonable floor and honours the
/// cooperative cancel token, so only the watchdog can end it.
RunResult starving_run(const RunSpec& spec) {
  if (spec.progress != nullptr) {
    spec.progress->active.store(true, std::memory_order_release);
  }
  for (int i = 0; i < 4000; ++i) {
    if (spec.progress != nullptr) {
      spec.progress->events.fetch_add(10, std::memory_order_relaxed);
      spec.progress->sim_time_ns.fetch_add(1'000'000,
                                           std::memory_order_relaxed);
    }
    if (spec.cancel != nullptr && spec.cancel->cancelled()) {
      throw util::Cancelled("starving run cancelled");
    }
    std::this_thread::sleep_for(milliseconds{2});
  }
  throw std::runtime_error("watchdog never fired");
}

class SupervisorSloTest : public ::testing::Test {
 protected:
  const test::ScratchDir dir_{"peerscope_supervisor_slo_test"};
};

TEST_F(SupervisorSloTest, SustainedViolationIsTerminalDespiteRetries) {
  const RunSpec specs[] = {tiny_spec(1)};
  std::atomic<int> calls{0};
  SupervisorConfig config;
  config.retries = 3;  // must NOT be burned on an SLO trip
  config.slo.events_per_s_floor = 1e15;
  config.slo.poll = milliseconds{5};
  config.slo.sustain = 2;
  config.run_fn = [&calls](const net::AsTopology&, const RunSpec& spec) {
    ++calls;
    return starving_run(spec);
  };

  util::ThreadPool pool{1};
  const auto outcome = supervise_runs(topo(), specs, pool, config);

  ASSERT_EQ(outcome.runs.size(), 1u);
  EXPECT_EQ(outcome.runs[0].state, RunState::kFailed);
  EXPECT_EQ(outcome.runs[0].attempts, 1);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(outcome.runs[0].error.rfind("slo violation: ", 0), 0u)
      << outcome.runs[0].error;
  EXPECT_NE(outcome.runs[0].error.find("below floor"), std::string::npos)
      << outcome.runs[0].error;
}

TEST_F(SupervisorSloTest, HealthyRunsPassUnderAnActiveWatchdog) {
  const RunSpec specs[] = {tiny_spec(1), tiny_spec(2)};
  SupervisorConfig config;
  config.slo.events_per_s_floor = 1.0;  // trivially satisfied
  config.slo.poll = milliseconds{5};
  config.run_fn = [](const net::AsTopology&, const RunSpec& spec) {
    if (spec.progress != nullptr) {
      spec.progress->active.store(true, std::memory_order_release);
      spec.progress->events.store(1'000'000, std::memory_order_relaxed);
      spec.progress->sim_time_ns.store(SimTime::seconds(25).ns(),
                                       std::memory_order_relaxed);
    }
    return fake_result(spec.seed);
  };

  util::ThreadPool pool{2};
  const auto outcome = supervise_runs(topo(), specs, pool, config);
  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.runs[0].state, RunState::kOk);
  EXPECT_EQ(outcome.runs[1].state, RunState::kOk);
}

TEST_F(SupervisorSloTest, SloTripDumpsTheFlightRecorder) {
  const RunSpec specs[] = {tiny_spec(1)};
  SupervisorConfig config;
  config.journal = dir_ / "experiment.journal";
  config.slo.events_per_s_floor = 1e15;
  config.slo.poll = milliseconds{5};
  config.slo.sustain = 2;
  config.run_fn = [](const net::AsTopology&, const RunSpec& spec) {
    PEERSCOPE_TRACE_INSTANT("exp.run_attempt");
    return starving_run(spec);
  };

  obs::TraceRecorder recorder;
  obs::install_tracer(&recorder);
  util::ThreadPool pool{1};
  const auto outcome = supervise_runs(topo(), specs, pool, config);
  const obs::TraceSnapshot timeline = recorder.snapshot();
  obs::install_tracer(nullptr);

  ASSERT_EQ(outcome.runs[0].state, RunState::kFailed);
  const auto flight = dir_ / "experiment.journal.d" /
                      spec_flight_name(spec_id(specs[0]));
  ASSERT_TRUE(std::filesystem::exists(flight));
  // The dump is the failing attempt's task-thread ring tail, and the
  // supervisor records the verdict on that thread, so both the dump
  // and the batch timeline hold it.
  const auto holds = [](const std::vector<obs::TraceEvent>& events,
                        const std::string& name) {
    return std::any_of(events.begin(), events.end(),
                       [&name](const obs::TraceEvent& event) {
                         return event.name == name;
                       });
  };
  const obs::TraceFile dump = obs::read_trace_file(flight);
  EXPECT_FALSE(dump.events.empty());
  EXPECT_TRUE(holds(dump.events, "exp.run_failed"));
  EXPECT_TRUE(holds(dump.events, "watchdog.slo_violation"));
  EXPECT_TRUE(holds(timeline.events, "watchdog.slo_violation"));
}

TEST_F(SupervisorSloTest, StatusPathPublishesTheBatchLifecycle) {
  const RunSpec specs[] = {tiny_spec(1)};
  SupervisorConfig config;
  config.status_path = dir_ / "status.json";
  config.run_fn = [](const net::AsTopology&, const RunSpec& spec) {
    return fake_result(spec.seed);
  };

  util::ThreadPool pool{1};
  const auto outcome = supervise_runs(topo(), specs, pool, config);
  ASSERT_TRUE(outcome.complete());

  std::ifstream in{config.status_path, std::ios::binary};
  std::ostringstream doc;
  doc << in.rdbuf();
  const auto view = parse_status(doc.str());
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->phase, "done");
  ASSERT_EQ(view->runs.size(), 1u);
  EXPECT_EQ(view->runs[0].spec, spec_id(specs[0]));
  EXPECT_EQ(view->runs[0].state, to_string(RunState::kOk));
  EXPECT_EQ(view->runs[0].attempts, 1);
}

TEST_F(SupervisorSloTest, SeriesIsPoolSizeIndependent) {
  // §5.6 for the time-series sidecar: sampling rides each run's own
  // engine, keyed (run, interval), so a 1-thread and a 4-thread batch
  // record byte-identical series for the same specs.
  RunSpec specs[] = {tiny_spec(1), tiny_spec(2), tiny_spec(3)};
  for (RunSpec& spec : specs) spec.duration = SimTime::seconds(10);

  const auto record_with_pool = [&specs](std::size_t threads) {
    obs::TimeseriesRecorder recorder{SimTime::seconds(2)};
    obs::install_series(&recorder);
    util::ThreadPool pool{threads};
    const auto outcome = supervise_runs(topo(), specs, pool, {});
    obs::install_series(nullptr);
    EXPECT_TRUE(outcome.complete());
    return deterministic_series(recorder.snapshot());
  };

  const std::string serial = record_with_pool(1);
  const std::string wide = record_with_pool(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, wide);
  // Every spec contributed its intervals under its own key.
  for (const RunSpec& spec : specs) {
    EXPECT_NE(serial.find(spec_id(spec)), std::string::npos) << spec_id(spec);
  }
}

}  // namespace
}  // namespace peerscope::exp
