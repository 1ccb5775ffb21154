// Golden tests for the metrics sidecar and the event tracer: the
// deterministic rendering of a fixed-seed run must be byte-identical
// across repeated invocations and across thread-pool sizes (DESIGN.md
// §9, §12), and a hand-built snapshot renders to fixed bytes.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "net/topology.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/scratch_dir.hpp"
#include "util/thread_pool.hpp"

namespace peerscope::obs {
namespace {

const net::AsTopology& topo() {
  static const net::AsTopology t = net::make_reference_topology();
  return t;
}

std::vector<exp::RunSpec> fixed_specs() {
  std::vector<exp::RunSpec> specs;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    exp::RunSpec spec;
    spec.profile = p2p::SystemProfile::tvants();
    spec.profile.population.background_peers = 120;
    spec.seed = seed;
    spec.duration = util::SimTime::seconds(15);
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Runs the fixed-seed experiment set under a fresh registry and
/// returns the deterministic sidecar rendering.
std::string run_and_render(std::size_t workers) {
  MetricsRegistry reg;
  install(&reg);
  const auto specs = fixed_specs();
  util::ThreadPool pool{workers};
  const auto results = exp::run_experiments(topo(), specs, pool);
  install(nullptr);
  EXPECT_EQ(results.size(), specs.size());
  return deterministic_json(reg.snapshot());
}

TEST(MetricsGolden, StableAcrossRepeatedInvocations) {
  const std::string first = run_and_render(2);
  const std::string second = run_and_render(2);
  EXPECT_EQ(first, second);
}

TEST(MetricsGolden, IndependentOfWorkerCount) {
  const std::string serial = run_and_render(1);
  const std::string parallel = run_and_render(3);
  EXPECT_EQ(serial, parallel);
}

TEST(MetricsGolden, SidecarCoversTheWholePipeline) {
  const std::string json = run_and_render(2);
  // One representative counter per instrumented subsystem: the sidecar
  // is end-to-end or it is not a run summary.
  for (const char* key :
       {"\"sim.packets_generated\"", "\"sim.trains_expanded\"",
        "\"sim.events_executed\"", "\"p2p.chunks_delivered\"",
        "\"p2p.contacts\"", "\"trace.packets_captured\"",
        "\"aware.observations_extracted\"", "\"aware.ipg_samples\"",
        "\"exp.experiments_run\"", "\"run.TVAnts\"",
        "\"run.TVAnts/simulate\"", "\"run.TVAnts/extract\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // Gauges are configuration facts and must stay out.
  EXPECT_EQ(json.find("exp.pool_workers"), std::string::npos);
}

/// Runs the fixed-seed experiment set under a fresh recorder and
/// returns the deterministic trace rendering. Every run flushes its
/// own ring at run end (exp::run_experiment), so by the time the pool
/// is drained the drained store holds everything.
std::string run_and_render_trace(std::size_t workers,
                                 std::size_t ring_capacity) {
  TraceConfig config;
  config.ring_capacity = ring_capacity;
  TraceRecorder recorder{config};
  install_tracer(&recorder);
  const auto specs = fixed_specs();
  util::ThreadPool pool{workers};
  const auto results = exp::run_experiments(topo(), specs, pool);
  install_tracer(nullptr);
  EXPECT_EQ(results.size(), specs.size());
  return deterministic_trace(recorder.snapshot());
}

TEST(TraceGolden, StableAcrossRepeatedInvocations) {
  const std::string first = run_and_render_trace(2, std::size_t{1} << 15);
  const std::string second = run_and_render_trace(2, std::size_t{1} << 15);
  EXPECT_EQ(first, second);
}

TEST(TraceGolden, IndependentOfWorkerCount) {
  const std::string serial = run_and_render_trace(1, std::size_t{1} << 15);
  const std::string parallel = run_and_render_trace(3, std::size_t{1} << 15);
  EXPECT_EQ(serial, parallel);
  // The rendering is a real timeline, not an empty shell.
  EXPECT_NE(serial.find("span run.TVAnts/simulate begin 3 end 3"),
            std::string::npos)
      << serial;
  EXPECT_NE(serial.find("instant p2p.swarm_complete count 3"),
            std::string::npos)
      << serial;
  EXPECT_NE(serial.find("counter p2p.chunks_delivered"), std::string::npos);
  EXPECT_NE(serial.find("dropped 0\n"), std::string::npos);
}

TEST(TraceGolden, OverflowingRingStaysWorkerCountIndependent) {
  // A ring far too small for a run: most events are overwritten. The
  // drop count and the surviving tail are still per-run properties
  // (flush at run end), so the rendering must not notice pool size.
  const std::string serial = run_and_render_trace(1, 8);
  const std::string parallel = run_and_render_trace(3, 8);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial.find("dropped 0\n"), std::string::npos)
      << "expected drops with an 8-slot ring:\n"
      << serial;
}

/// Every rendering path of metrics.json on one snapshot: escaped
/// names, u64 extremes, negative i64, %.17g doubles, empty and timing
/// histograms. The expected bytes pin the format: a change to the
/// writer's code must not move them.
MetricsSnapshot hand_built_snapshot() {
  MetricsSnapshot m;
  m.counters["a.count"] = 7;
  m.counters["quo\"te\\back\x01"] = 1;
  m.counters["z.max"] = 18446744073709551615ULL;
  m.gauges["g.pi"] = 3.141592653589793;
  m.gauges["g.neg"] = -0.1;
  m.gauges["g.big"] = 1e300;
  m.gauges["g.zero"] = 0.0;
  m.gauges["g.small"] = 1e-7;
  HistogramSnapshot value;
  value.bounds = {1, 10, 100};
  value.buckets = {0, 2, 3, 1};
  value.count = 6;
  value.sum = 250;
  m.histograms["h.value"] = value;
  HistogramSnapshot timing;
  timing.bounds = {1000};
  timing.buckets = {1, 2};
  timing.count = 3;
  timing.sum = -5000;
  timing.timing = true;
  m.histograms["h.time"] = timing;
  m.histograms["h.empty"] = HistogramSnapshot{};
  m.spans["run.A"] = SpanStats{2, 300, 100, 200};
  m.spans["run.A/sim"] = SpanStats{1, 9'000'000'000, -1, 9'000'000'000};
  return m;
}

TEST(MetricsGolden, HandBuiltSnapshotKeepsItsBytes) {
  const MetricsSnapshot m = hand_built_snapshot();
  EXPECT_EQ(
      to_json(m),
      "{\n"
      "  \"schema\": \"peerscope.metrics/1\",\n"
      "  \"counters\": {\n"
      "    \"a.count\": 7,\n"
      "    \"quo\\\"te\\\\back\\u0001\": 1,\n"
      "    \"z.max\": 18446744073709551615\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"g.big\": 1.0000000000000001e+300,\n"
      "    \"g.neg\": -0.10000000000000001,\n"
      "    \"g.pi\": 3.1415926535897931,\n"
      "    \"g.small\": 9.9999999999999995e-08,\n"
      "    \"g.zero\": 0\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"h.empty\": {\"bounds\": [], \"buckets\": [], \"count\": 0, "
      "\"sum\": 0},\n"
      "    \"h.time\": {\"bounds\": [1000], \"buckets\": [1,2], \"count\": 3, "
      "\"sum\": -5000, \"timing\": true},\n"
      "    \"h.value\": {\"bounds\": [1,10,100], \"buckets\": [0,2,3,1], "
      "\"count\": 6, \"sum\": 250}\n"
      "  },\n"
      "  \"spans\": {\n"
      "    \"run.A\": {\"count\": 2, \"total_ns\": 300, \"min_ns\": 100, "
      "\"max_ns\": 200},\n"
      "    \"run.A/sim\": {\"count\": 1, \"total_ns\": 9000000000, "
      "\"min_ns\": -1, \"max_ns\": 9000000000}\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(deterministic_json(m),
            "{\n"
            "  \"schema\": \"peerscope.metrics/1\",\n"
            "  \"counters\": {\n"
            "    \"a.count\": 7,\n"
            "    \"quo\\\"te\\\\back\\u0001\": 1,\n"
            "    \"z.max\": 18446744073709551615\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"h.empty\": {\"bounds\": [], \"buckets\": [], "
            "\"count\": 0, \"sum\": 0},\n"
            "    \"h.time\": {\"timing\": true},\n"
            "    \"h.value\": {\"bounds\": [1,10,100], \"buckets\": "
            "[0,2,3,1], \"count\": 6, \"sum\": 250}\n"
            "  },\n"
            "  \"spans\": {\n"
            "    \"run.A\": {\"count\": 2},\n"
            "    \"run.A/sim\": {\"count\": 1}\n"
            "  }\n"
            "}\n");
  EXPECT_EQ(to_json(MetricsSnapshot{}),
            "{\n"
            "  \"schema\": \"peerscope.metrics/1\",\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {},\n"
            "  \"spans\": {}\n"
            "}\n");
}

/// trace.json for every event type, with names that need escaping.
TEST(TraceGolden, HandBuiltSnapshotKeepsItsBytes) {
  TraceSnapshot snap;
  snap.dropped = 5;
  snap.events.push_back({"run.App", TraceEventType::kBegin, 0, 0, 0});
  snap.events.push_back(
      {"run.App/q\"uo\\te", TraceEventType::kBegin, 0, 999, 0});
  snap.events.push_back(
      {"ctl\x01name", TraceEventType::kInstant, 3, 1'234'567, 0});
  snap.events.push_back(
      {"chunks", TraceEventType::kCounter, 3, 12'345'678'901'234, -17});
  snap.events.push_back({"chunks", TraceEventType::kCounter, 0, 1'000'001, 42});
  snap.events.push_back(
      {"run.App/q\"uo\\te", TraceEventType::kEnd, 0, 5'000, 0});
  snap.events.push_back({"run.App", TraceEventType::kEnd, 1, 9'000, 0});
  EXPECT_EQ(
      trace_json(snap),
      "{\"schema\": \"peerscope.trace/1\",\n"
      "\"displayTimeUnit\": \"ms\",\n"
      "\"dropped\": 5,\n"
      "\"traceEvents\": [\n"
      "{\"name\": \"run.App\", \"ph\": \"B\", \"pid\": 1, \"tid\": 0, "
      "\"ts\": 0.000},\n"
      "{\"name\": \"run.App/q\\\"uo\\\\te\", \"ph\": \"B\", \"pid\": 1, "
      "\"tid\": 0, \"ts\": 0.999},\n"
      "{\"name\": \"ctl\\u0001name\", \"ph\": \"i\", \"pid\": 1, "
      "\"tid\": 3, \"ts\": 1234.567, \"s\": \"t\"},\n"
      "{\"name\": \"chunks\", \"ph\": \"C\", \"pid\": 1, \"tid\": 3, "
      "\"ts\": 12345678901.234, \"args\": {\"value\": -17}},\n"
      "{\"name\": \"chunks\", \"ph\": \"C\", \"pid\": 1, \"tid\": 0, "
      "\"ts\": 1000.001, \"args\": {\"value\": 42}},\n"
      "{\"name\": \"run.App/q\\\"uo\\\\te\", \"ph\": \"E\", \"pid\": 1, "
      "\"tid\": 0, \"ts\": 5.000},\n"
      "{\"name\": \"run.App\", \"ph\": \"E\", \"pid\": 1, \"tid\": 1, "
      "\"ts\": 9.000}\n"
      "]}\n");
  EXPECT_EQ(trace_json(TraceSnapshot{}),
            "{\"schema\": \"peerscope.trace/1\",\n"
            "\"displayTimeUnit\": \"ms\",\n"
            "\"dropped\": 0,\n"
            "\"traceEvents\": [\n"
            "]}\n");
}

TEST(MetricsGolden, WrittenFileMatchesRendering) {
  MetricsRegistry reg;
  install(&reg);
  counter("file.counter").add(7);
  install(nullptr);

  const test::ScratchDir dir{"peerscope_metrics_golden"};
  const auto path = dir / "metrics.json";
  write_metrics_json(path, reg.snapshot(), /*deterministic=*/true);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), deterministic_json(reg.snapshot()));
}

}  // namespace
}  // namespace peerscope::obs
