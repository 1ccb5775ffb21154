// Bench perf-trajectory gate (DESIGN.md §14): the library behind the
// `peerscope bench-diff` and `peerscope bench-trajectory` subcommands.
//
// CI commits one canonical peerscope.bench/2 snapshot per bench under
// bench/trajectory/BENCH_<name>.json. On every PR the bench smoke
// reruns each bench with PEERSCOPE_BENCH_JSON and diffs the fresh
// numbers against the committed snapshot: a wall-time increase or an
// events/sec drop beyond the budget (15% by default) fails the job
// with exit code 9, which only the documented `perf-regression-ok`
// label overrides. `bench-trajectory` renders the committed snapshots
// as a markdown table for $GITHUB_STEP_SUMMARY so the perf history is
// visible on every run, not just failing ones.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace peerscope::tools {

/// One `phases` row: per-span-path wall-time attribution as computed
/// by obs::attribute_spans (self = total minus nested children).
struct BenchPhase {
  std::string path;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// One bench JSON document (schema peerscope.bench/2; /1 files parse
/// too, with an empty phase list).
struct BenchSnapshot {
  std::string schema;
  std::string bench;
  double wall_s = 0.0;
  std::uint64_t events_executed = 0;
  double events_per_s = 0.0;
  std::uint64_t peak_rss_kb = 0;
  std::vector<BenchPhase> phases;
};

/// Parses a document bench::BenchJsonSession wrote, through the
/// util::json flat reader (DESIGN.md §9). Throws std::runtime_error
/// when a field is absent or torn, or the schema is foreign.
[[nodiscard]] BenchSnapshot parse_bench_snapshot(const std::string& text);

/// read + parse; throws std::runtime_error (with the path in the
/// message) when the file is unreadable.
[[nodiscard]] BenchSnapshot read_bench_snapshot(
    const std::filesystem::path& path);

/// Headline deltas, in percent of the baseline. Positive wall_pct
/// means the fresh run is slower; negative events_pct means it
/// executes fewer events per second. A zero baseline value disarms
/// that half of the gate (delta reported as 0).
struct BenchDelta {
  double wall_pct = 0.0;
  double events_pct = 0.0;

  [[nodiscard]] bool regressed(double budget_pct) const {
    return wall_pct > budget_pct || events_pct < -budget_pct;
  }
};

[[nodiscard]] BenchDelta diff_snapshots(const BenchSnapshot& baseline,
                                        const BenchSnapshot& fresh);

/// Human-readable diff: headline metrics plus per-phase self-time
/// deltas for phases present in both snapshots, and the verdict line
/// CI greps ("within budget" / "REGRESSION").
[[nodiscard]] std::string render_bench_diff(const BenchSnapshot& baseline,
                                            const BenchSnapshot& fresh,
                                            double budget_pct);

/// Markdown table over committed snapshots (one row per bench), for
/// $GITHUB_STEP_SUMMARY.
[[nodiscard]] std::string render_trajectory_markdown(
    const std::vector<BenchSnapshot>& rows);

}  // namespace peerscope::tools
