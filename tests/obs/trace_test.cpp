#include "obs/trace.hpp"

// This suite exercises the recorder API with synthetic event names on
// purpose — they must NOT go into src/obs/trace_names.def.
// peerscope-lint: allow-file(metric-name-registry)

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_summary.hpp"
#include "support/scratch_dir.hpp"
#include "util/atomic_file.hpp"

namespace peerscope::obs {
namespace {

std::filesystem::path temp_path(const char* name) {
  static const test::ScratchDir dir{"peerscope_trace_test"};
  return dir / name;
}

/// Installs a recorder for the test body and guarantees uninstall even
/// when an assertion fails mid-test.
class InstalledTracer {
 public:
  explicit InstalledTracer(TraceRecorder& recorder) {
    install_tracer(&recorder);
  }
  ~InstalledTracer() { install_tracer(nullptr); }
  InstalledTracer(const InstalledTracer&) = delete;
  InstalledTracer& operator=(const InstalledTracer&) = delete;
};

TEST(TraceHooks, AreNoOpsWithoutARecorder) {
  install_tracer(nullptr);
  EXPECT_FALSE(trace_enabled());
  trace_instant("nobody.listening");
  trace_counter("nobody.counting", 7);
  trace_flush();
  PEERSCOPE_TRACE_INSTANT("nobody.listening");
  PEERSCOPE_TRACE_COUNTER("nobody.counting", 7);
  { Span span{"nobody"}; }
  // Nothing to assert beyond "did not crash": the contract is that the
  // hooks touch no recorder state when none is installed.
}

TEST(TraceRecorderTest, RecordsEventsInOrderWithTypesAndValues) {
  TraceRecorder recorder;
  InstalledTracer installed{recorder};
  recorder.begin("phase.a");
  trace_instant("tick");
  trace_counter("gauge", 42);
  recorder.end("phase.a");
  const TraceSnapshot snap = recorder.snapshot();

  ASSERT_EQ(snap.events.size(), 4u);
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_EQ(snap.events[0].name, "phase.a");
  EXPECT_EQ(snap.events[0].type, TraceEventType::kBegin);
  EXPECT_EQ(snap.events[1].name, "tick");
  EXPECT_EQ(snap.events[1].type, TraceEventType::kInstant);
  EXPECT_EQ(snap.events[2].name, "gauge");
  EXPECT_EQ(snap.events[2].type, TraceEventType::kCounter);
  EXPECT_EQ(snap.events[2].value, 42);
  EXPECT_EQ(snap.events[3].name, "phase.a");
  EXPECT_EQ(snap.events[3].type, TraceEventType::kEnd);
  for (const TraceEvent& event : snap.events) {
    EXPECT_EQ(event.tid, 0u);
    EXPECT_GE(event.ts_ns, 0);
  }
  // Timestamps are monotone within a thread.
  for (std::size_t i = 1; i < snap.events.size(); ++i) {
    EXPECT_LE(snap.events[i - 1].ts_ns, snap.events[i].ts_ns);
  }
}

TEST(TraceRecorderTest, SpanEmitsFullPathBeginAndEnd) {
  TraceRecorder recorder;
  InstalledTracer installed{recorder};
  {
    Span outer{"run.App"};
    Span inner{"simulate"};
  }
  const TraceSnapshot snap = recorder.snapshot();
  ASSERT_EQ(snap.events.size(), 4u);
  EXPECT_EQ(snap.events[0].name, "run.App");
  EXPECT_EQ(snap.events[0].type, TraceEventType::kBegin);
  EXPECT_EQ(snap.events[1].name, "run.App/simulate");
  EXPECT_EQ(snap.events[1].type, TraceEventType::kBegin);
  EXPECT_EQ(snap.events[2].name, "run.App/simulate");
  EXPECT_EQ(snap.events[2].type, TraceEventType::kEnd);
  EXPECT_EQ(snap.events[3].name, "run.App");
  EXPECT_EQ(snap.events[3].type, TraceEventType::kEnd);
}

TEST(TraceRecorderTest, OverflowKeepsNewestTailAndCountsDrops) {
  TraceConfig config;
  config.ring_capacity = 4;
  TraceRecorder recorder{config};
  InstalledTracer installed{recorder};
  for (int i = 0; i < 10; ++i) {
    trace_counter("tick", i);
  }
  const TraceSnapshot snap = recorder.snapshot();
  ASSERT_EQ(snap.events.size(), 4u);
  EXPECT_EQ(snap.dropped, 6u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(snap.events[static_cast<std::size_t>(i)].value, 6 + i);
  }
}

TEST(TraceRecorderTest, RecentEventsReturnsNewestTailOldestFirst) {
  TraceConfig config;
  config.ring_capacity = 4;
  TraceRecorder recorder{config};
  InstalledTracer installed{recorder};
  for (int i = 0; i < 10; ++i) {
    trace_counter("tick", i);
  }
  const std::vector<TraceEvent> tail = recorder.recent_events(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].value, 7);
  EXPECT_EQ(tail[1].value, 8);
  EXPECT_EQ(tail[2].value, 9);
  // Asking for more than the ring retains returns the whole ring.
  EXPECT_EQ(recorder.recent_events(100).size(), 4u);
  // A thread that never recorded has no tail.
  std::thread([&recorder] {
    EXPECT_TRUE(recorder.recent_events(8).empty());
  }).join();
}

TEST(TraceRecorderTest, FlushedThreadsKeepDistinctTids) {
  TraceRecorder recorder;
  InstalledTracer installed{recorder};
  trace_instant("main.tick");
  trace_flush();
  std::thread([] {
    trace_instant("worker.tick");
    trace_flush();
  }).join();
  const TraceSnapshot snap = recorder.snapshot();
  ASSERT_EQ(snap.events.size(), 2u);
  EXPECT_EQ(snap.events[0].name, "main.tick");
  EXPECT_EQ(snap.events[1].name, "worker.tick");
  EXPECT_NE(snap.events[0].tid, snap.events[1].tid);
}

TEST(TraceRecorderTest, ReinstallNeverLeaksEventsAcrossRecorders) {
  TraceRecorder first;
  install_tracer(&first);
  trace_instant("for.first");
  install_tracer(nullptr);

  TraceRecorder second;
  install_tracer(&second);
  trace_instant("for.second");
  install_tracer(nullptr);

  const TraceSnapshot snap_first = first.snapshot();
  ASSERT_EQ(snap_first.events.size(), 1u);
  EXPECT_EQ(snap_first.events[0].name, "for.first");
  const TraceSnapshot snap_second = second.snapshot();
  ASSERT_EQ(snap_second.events.size(), 1u);
  EXPECT_EQ(snap_second.events[0].name, "for.second");
}

TEST(TraceRecorderTest, DropsAreMirroredIntoTheMetricsSidecar) {
  MetricsRegistry registry;
  install(&registry);
  TraceConfig config;
  config.ring_capacity = 2;
  TraceRecorder recorder{config};
  {
    InstalledTracer installed{recorder};
    for (int i = 0; i < 7; ++i) trace_instant("spam");
    trace_flush();
  }
  install(nullptr);
  const auto snap = registry.snapshot();
  ASSERT_TRUE(snap.counters.contains("obs.trace_events_dropped"));
  EXPECT_EQ(snap.counters.at("obs.trace_events_dropped"), 5u);
}

TEST(TraceRecorderTest, DropFreeFlushLeavesMetricsUntouched) {
  // The byte-identity half of the contract: a traced run that loses
  // nothing must not add keys to metrics.json.
  MetricsRegistry registry;
  install(&registry);
  TraceRecorder recorder;
  {
    InstalledTracer installed{recorder};
    trace_instant("calm");
    trace_flush();
  }
  install(nullptr);
  const auto snap = registry.snapshot();
  EXPECT_FALSE(snap.counters.contains("obs.trace_events_dropped"));
}

// ---------------------------------------------------------------------
// trace.json writer + trace_summary reader

TraceSnapshot sample_snapshot() {
  TraceSnapshot snap;
  snap.dropped = 3;
  snap.events.push_back({"run.App", TraceEventType::kBegin, 0, 1'000, 0});
  snap.events.push_back(
      {"run.App/simulate", TraceEventType::kBegin, 0, 2'500, 0});
  snap.events.push_back({"quo\"te\\path", TraceEventType::kInstant, 0,
                         3'141, 0});
  snap.events.push_back({"chunks", TraceEventType::kCounter, 0, 4'000, -17});
  snap.events.push_back(
      {"run.App/simulate", TraceEventType::kEnd, 0, 5'000, 0});
  snap.events.push_back({"run.App", TraceEventType::kEnd, 1, 9'000, 0});
  return snap;
}

TEST(TraceJson, RoundTripsThroughTheSummaryReader) {
  const TraceSnapshot snap = sample_snapshot();
  const auto path = temp_path("peerscope_trace_roundtrip.json");
  write_trace_json(path, snap);
  const TraceFile file = read_trace_file(path);
  std::filesystem::remove(path);

  EXPECT_EQ(file.schema, "peerscope.trace/1");
  EXPECT_EQ(file.dropped, 3u);
  EXPECT_EQ(file.skipped_lines, 0u);
  ASSERT_EQ(file.events.size(), snap.events.size());
  for (std::size_t i = 0; i < snap.events.size(); ++i) {
    EXPECT_EQ(file.events[i].name, snap.events[i].name) << i;
    EXPECT_EQ(file.events[i].type, snap.events[i].type) << i;
    EXPECT_EQ(file.events[i].tid, snap.events[i].tid) << i;
    EXPECT_EQ(file.events[i].ts_ns, snap.events[i].ts_ns) << i;
    EXPECT_EQ(file.events[i].value, snap.events[i].value) << i;
  }
}

TEST(TraceJson, DeterministicRenderingMatchesInMemoryTrace) {
  const TraceSnapshot snap = sample_snapshot();
  const auto path = temp_path("peerscope_trace_deterministic.json");
  write_trace_json(path, snap);
  const TraceFile file = read_trace_file(path);
  std::filesystem::remove(path);
  EXPECT_EQ(deterministic_rendering(file), deterministic_trace(snap));
}

TEST(TraceJson, TornTailIsSalvagedNotFatal) {
  const TraceSnapshot snap = sample_snapshot();
  const std::string full = trace_json(snap);
  // Cut mid-way through the last event line: the victim line loses its
  // closing brace and the file loses its footer.
  const auto last_line = full.rfind("\n{");
  ASSERT_NE(last_line, std::string::npos);
  const std::string torn = full.substr(0, last_line + 10);

  const auto path = temp_path("peerscope_trace_torn.json");
  util::write_file_atomic(path, torn);
  const TraceFile file = read_trace_file(path);
  std::filesystem::remove(path);

  EXPECT_EQ(file.schema, "peerscope.trace/1");
  EXPECT_EQ(file.dropped, 3u);
  EXPECT_EQ(file.skipped_lines, 1u);
  EXPECT_EQ(file.events.size(), snap.events.size() - 1);
}

TEST(TraceJson, WrongSchemaIsAnError) {
  const auto path = temp_path("peerscope_trace_badschema.json");
  util::write_file_atomic(
      path, "{\"schema\": \"peerscope.metrics/1\",\n\"traceEvents\": [\n]}\n");
  EXPECT_THROW(read_trace_file(path), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW(read_trace_file(temp_path("peerscope_no_such_trace.json")),
               std::runtime_error);
}

TEST(TraceJson, EventLinesAreSelfContainedJsonObjects) {
  // One event per line is what makes torn tails line-local; check the
  // shape rather than trusting the writer comment.
  const std::string json = trace_json(sample_snapshot());
  std::size_t event_lines = 0;
  std::size_t start = 0;
  while (start < json.size()) {
    auto end = json.find('\n', start);
    if (end == std::string::npos) end = json.size();
    std::string line = json.substr(start, end - start);
    if (!line.empty() && line.back() == ',') line.pop_back();
    if (line.rfind("{\"name\"", 0) == 0) {
      ++event_lines;
      EXPECT_EQ(line.back(), '}') << line;
    }
    start = end + 1;
  }
  EXPECT_EQ(event_lines, sample_snapshot().events.size());
}

// ---------------------------------------------------------------------
// Wall-time attribution

TEST(AttributeSpans, ComputesTotalAndSelfAcrossNesting) {
  std::vector<TraceEvent> events;
  events.push_back({"run.A", TraceEventType::kBegin, 0, 0, 0});
  events.push_back({"run.A/sim", TraceEventType::kBegin, 0, 100, 0});
  events.push_back({"run.A/sim", TraceEventType::kEnd, 0, 400, 0});
  events.push_back({"run.A/extract", TraceEventType::kBegin, 0, 500, 0});
  events.push_back({"run.A/extract", TraceEventType::kEnd, 0, 600, 0});
  events.push_back({"run.A", TraceEventType::kEnd, 0, 1'000, 0});

  const auto rows = attribute_spans(events);
  ASSERT_EQ(rows.size(), 3u);  // sorted by path
  EXPECT_EQ(rows[0].path, "run.A");
  EXPECT_EQ(rows[0].app, "run.A");
  EXPECT_EQ(rows[0].count, 1u);
  EXPECT_EQ(rows[0].total_ns, 1'000);
  EXPECT_EQ(rows[0].self_ns, 600);  // 1000 - (300 + 100) nested
  EXPECT_EQ(rows[1].path, "run.A/extract");
  EXPECT_EQ(rows[1].app, "run.A");
  EXPECT_EQ(rows[1].total_ns, 100);
  EXPECT_EQ(rows[1].self_ns, 100);
  EXPECT_EQ(rows[2].path, "run.A/sim");
  EXPECT_EQ(rows[2].total_ns, 300);
  EXPECT_EQ(rows[2].self_ns, 300);
}

TEST(AttributeSpans, UnmatchedEventsAreDiscardedWithoutPoisoning) {
  std::vector<TraceEvent> events;
  // An end whose begin fell out of a wrapped ring…
  events.push_back({"run.lost", TraceEventType::kEnd, 0, 50, 0});
  // …a begin whose run died before ending…
  events.push_back({"run.dead", TraceEventType::kBegin, 0, 60, 0});
  // …and a healthy pair around them.
  events.push_back({"run.ok", TraceEventType::kBegin, 0, 100, 0});
  events.push_back({"run.ok", TraceEventType::kEnd, 0, 300, 0});

  const auto rows = attribute_spans(events);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].path, "run.ok");
  EXPECT_EQ(rows[0].total_ns, 200);
}

TEST(AttributeSpans, ThreadsAttributeIndependently) {
  std::vector<TraceEvent> events;
  events.push_back({"run.x", TraceEventType::kBegin, 0, 0, 0});
  events.push_back({"run.y", TraceEventType::kBegin, 1, 10, 0});
  events.push_back({"run.y", TraceEventType::kEnd, 1, 110, 0});
  events.push_back({"run.x", TraceEventType::kEnd, 0, 500, 0});

  const auto rows = attribute_spans(events);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].path, "run.x");
  EXPECT_EQ(rows[0].total_ns, 500);
  EXPECT_EQ(rows[0].self_ns, 500);  // run.y is another thread, not a child
  EXPECT_EQ(rows[1].path, "run.y");
  EXPECT_EQ(rows[1].total_ns, 100);
}

TEST(RenderTraceSummary, PrintsRankedRowsAndRespectsTopN) {
  std::vector<SpanAttribution> rows;
  rows.push_back({"run.A/sim", "run.A", 2, 3'000'000, 2'500'000});
  rows.push_back({"run.A", "run.A", 1, 4'000'000, 1'000'000});
  rows.push_back({"run.A/extract", "run.A", 1, 500'000, 500'000});

  const std::string table = render_trace_summary(rows, 2);
  EXPECT_NE(table.find("self ms"), std::string::npos);
  EXPECT_NE(table.find("run.A/sim"), std::string::npos);
  EXPECT_NE(table.find("run.A"), std::string::npos);
  // Third row falls off at top_n = 2.
  EXPECT_EQ(table.find("run.A/extract"), std::string::npos);
  // Biggest self time (2.500 ms) is ranked above the smaller (1.000).
  EXPECT_LT(table.find("2.500"), table.find("1.000"));
}

TEST(RenderTraceSummary, EmptyInputStillRendersAHeader) {
  const std::string table = render_trace_summary({}, 10);
  EXPECT_NE(table.find("app"), std::string::npos);
  EXPECT_NE(table.find("self %"), std::string::npos);
}

}  // namespace
}  // namespace peerscope::obs
