// Perf-trajectory gate tests (tools/bench_gate.hpp): the bytes
// bench::bench_json writes and their parsing back, the regression
// budget math behind `peerscope bench-diff`, and the markdown
// rendering behind `peerscope bench-trajectory`.
//
// The literals below are example documents, not schema uses.
// peerscope-lint: allow-file(schema-version-consistency)
#include "bench_gate.hpp"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bench/harness.hpp"

namespace peerscope::tools {
namespace {

using ::testing::HasSubstr;
using ::testing::Not;

constexpr const char* kV2Doc =
    "{\"schema\":\"peerscope.bench/2\",\"bench\":\"bench_table2\","
    "\"wall_s\":12.5,\"events_executed\":2500000,"
    "\"events_per_s\":200000,\"peak_rss_kb\":65536,\"phases\":["
    "{\"path\":\"run.PPLive\",\"count\":1,\"total_ns\":9000000000,"
    "\"self_ns\":8000000000},"
    "{\"path\":\"run.PPLive.swarm_run\",\"count\":1,"
    "\"total_ns\":1000000000,\"self_ns\":1000000000}]}\n";

BenchSnapshot sample(double wall_s, double events_per_s) {
  BenchSnapshot out;
  out.bench = "bench_table2";
  out.wall_s = wall_s;
  out.events_executed = 1000;
  out.events_per_s = events_per_s;
  out.peak_rss_kb = 1024;
  return out;
}

TEST(BenchSnapshotParse, ReadsEveryHeadlineFieldAndAllPhases) {
  const BenchSnapshot snap = parse_bench_snapshot(kV2Doc);
  EXPECT_EQ(snap.schema, "peerscope.bench/2");
  EXPECT_EQ(snap.bench, "bench_table2");
  EXPECT_DOUBLE_EQ(snap.wall_s, 12.5);
  EXPECT_EQ(snap.events_executed, 2'500'000u);
  EXPECT_DOUBLE_EQ(snap.events_per_s, 200'000.0);
  EXPECT_EQ(snap.peak_rss_kb, 65'536u);
  ASSERT_EQ(snap.phases.size(), 2u);
  EXPECT_EQ(snap.phases[0].path, "run.PPLive");
  EXPECT_EQ(snap.phases[0].count, 1u);
  EXPECT_EQ(snap.phases[0].total_ns, 9'000'000'000u);
  EXPECT_EQ(snap.phases[0].self_ns, 8'000'000'000u);
  EXPECT_EQ(snap.phases[1].path, "run.PPLive.swarm_run");
}

TEST(BenchSnapshotParse, V1DocumentWithoutPhasesParses) {
  const BenchSnapshot snap = parse_bench_snapshot(
      "{\"schema\":\"peerscope.bench/1\",\"bench\":\"bench_degradation\","
      "\"wall_s\":3.25,\"events_executed\":100,\"events_per_s\":30.8,"
      "\"peak_rss_kb\":2048}\n");
  EXPECT_EQ(snap.bench, "bench_degradation");
  EXPECT_TRUE(snap.phases.empty());
}

TEST(BenchSnapshotParse, ForeignSchemaThrows) {
  EXPECT_THROW(
      parse_bench_snapshot("{\"schema\":\"peerscope.trace/1\"}"),
      std::runtime_error);
}

TEST(BenchSnapshotParse, MissingFieldThrows) {
  EXPECT_THROW(parse_bench_snapshot(
                   "{\"schema\":\"peerscope.bench/2\",\"bench\":\"x\"}"),
               std::runtime_error);
}

TEST(BenchSnapshotParse, UnreadableFileThrowsWithPath) {
  try {
    (void)read_bench_snapshot("/nonexistent/BENCH_x.json");
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& error) {
    EXPECT_THAT(error.what(), HasSubstr("BENCH_x.json"));
  }
}

TEST(BenchJson, DocumentKeepsItsBytes) {
  const std::vector<obs::SpanAttribution> phases = {
      {"run.PPLive", "run.PPLive", 1, 81232941, 7101607},
      {"run.PPLive/simulate/swarm_run", "run.PPLive", 2, 71908592, 71908592}};
  EXPECT_EQ(
      bench::bench_json("bench_table2", 2.5e-05, 44707, 12544, phases),
      "{\"schema\":\"peerscope.bench/2\",\"bench\":\"bench_table2\","
      "\"wall_s\":2.5e-05,\"events_executed\":44707,"
      "\"events_per_s\":1.78828e+09,\"peak_rss_kb\":12544,\"phases\":["
      "{\"path\":\"run.PPLive\",\"count\":1,\"total_ns\":81232941,"
      "\"self_ns\":7101607},"
      "{\"path\":\"run.PPLive/simulate/swarm_run\",\"count\":2,"
      "\"total_ns\":71908592,\"self_ns\":71908592}]}\n");
  EXPECT_EQ(bench::bench_json("bench_micro_engine", 0.150017, 0, 65536, {}),
            "{\"schema\":\"peerscope.bench/2\",\"bench\":"
            "\"bench_micro_engine\",\"wall_s\":0.150017,"
            "\"events_executed\":0,\"events_per_s\":0,"
            "\"peak_rss_kb\":65536,\"phases\":[]}\n");
}

TEST(BenchJson, SpanPathsThatNeedEscapesRoundTrip) {
  const std::vector<obs::SpanAttribution> phases = {
      {"run.A/\"quoted\"\\path\t}]", "run.A", 3, 30, 10}};
  const BenchSnapshot snap = parse_bench_snapshot(
      bench::bench_json("bench_x", 1.5, 10, 2048, phases));
  ASSERT_EQ(snap.phases.size(), 1u);
  EXPECT_EQ(snap.phases[0].path, phases[0].path);
  EXPECT_EQ(snap.phases[0].count, 3u);
  EXPECT_EQ(snap.phases[0].total_ns, 30u);
  EXPECT_EQ(snap.phases[0].self_ns, 10u);
}

TEST(BenchDiffMath, ComputesSignedPercentages) {
  const BenchDelta delta =
      diff_snapshots(sample(10.0, 1000.0), sample(11.0, 900.0));
  EXPECT_NEAR(delta.wall_pct, 10.0, 1e-9);
  EXPECT_NEAR(delta.events_pct, -10.0, 1e-9);
}

TEST(BenchDiffMath, BudgetGatesBothDirections) {
  // 10% slower wall: inside a 15% budget, outside a 5% one.
  const BenchDelta slower =
      diff_snapshots(sample(10.0, 1000.0), sample(11.0, 1000.0));
  EXPECT_FALSE(slower.regressed(15.0));
  EXPECT_TRUE(slower.regressed(5.0));
  // 20% events/sec drop fails a 15% budget even with flat wall time.
  const BenchDelta fewer =
      diff_snapshots(sample(10.0, 1000.0), sample(10.0, 800.0));
  EXPECT_TRUE(fewer.regressed(15.0));
  // Faster is never a regression.
  const BenchDelta faster =
      diff_snapshots(sample(10.0, 1000.0), sample(5.0, 2000.0));
  EXPECT_FALSE(faster.regressed(15.0));
}

TEST(BenchDiffMath, ZeroBaselineDisarmsThatHalf) {
  const BenchDelta delta =
      diff_snapshots(sample(0.0, 0.0), sample(10.0, 1000.0));
  EXPECT_DOUBLE_EQ(delta.wall_pct, 0.0);
  EXPECT_DOUBLE_EQ(delta.events_pct, 0.0);
  EXPECT_FALSE(delta.regressed(15.0));
}

TEST(BenchDiffRender, WithinBudgetVerdictAndPhaseRows) {
  BenchSnapshot base = parse_bench_snapshot(kV2Doc);
  BenchSnapshot fresh = base;
  fresh.wall_s = 12.6;
  const std::string text = render_bench_diff(base, fresh, 15.0);
  EXPECT_THAT(text, HasSubstr("bench_table2"));
  EXPECT_THAT(text, HasSubstr("verdict: within budget"));
  EXPECT_THAT(text, HasSubstr("run.PPLive"));
  EXPECT_THAT(text, Not(HasSubstr("REGRESSION")));
}

TEST(BenchDiffRender, RegressionVerdictNamesTheOverrideLabel) {
  const std::string text =
      render_bench_diff(sample(10.0, 1000.0), sample(20.0, 500.0), 15.0);
  EXPECT_THAT(text, HasSubstr("verdict: REGRESSION"));
  EXPECT_THAT(text, HasSubstr("perf-regression-ok"));
}

TEST(TrajectoryRender, OneMarkdownRowPerSnapshotWithHottestPhase) {
  const std::vector<BenchSnapshot> rows = {
      parse_bench_snapshot(kV2Doc),
      sample(3.0, 333.0),
  };
  const std::string text = render_trajectory_markdown(rows);
  EXPECT_THAT(text, HasSubstr("| bench |"));
  EXPECT_THAT(text,
              HasSubstr("| bench_table2 | 12.500 | 2500000 | 200.0k | "
                        "64.0 | run.PPLive (8.000s) |"));
  EXPECT_THAT(text, HasSubstr("| bench_table2 | 3.000 |"));
  EXPECT_THAT(text, HasSubstr("| - |\n"));
}

}  // namespace
}  // namespace peerscope::tools
