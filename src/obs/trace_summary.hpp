// trace.json reader + wall-time profiler (peerscope trace-summary).
//
// Reads the Chrome trace-event files written by write_trace_json and
// attributes wall time to span paths: `total` is time between a
// span's B and E events, `self` is total minus the time spent in
// directly nested child spans — the number that says where a phase
// actually burns its cycles. The reader reads each line through the
// util::json flat reader (DESIGN.md §9) and is salvage-mode by
// construction: a torn or garbled event line is counted in
// `skipped_lines` and skipped, never fatal, so a trace copied out of
// a SIGKILL'd run directory still profiles.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace peerscope::obs {

/// One parsed trace file. `events` preserves file order; `dropped` is
/// the writer-side ring-overflow count from the file header.
struct TraceFile {
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
  /// Event-looking lines that failed to parse (torn tail, truncation).
  std::size_t skipped_lines = 0;
  /// Schema string from the header; empty when the header was torn.
  std::string schema;
};

/// Parses `path`. Throws std::runtime_error when the file cannot be
/// opened or declares a schema other than peerscope.trace/1;
/// malformed *lines* are salvage (skipped_lines), not errors.
[[nodiscard]] TraceFile read_trace_file(const std::filesystem::path& path);

/// Wall-time attribution of one span path across all its B/E pairs.
struct SpanAttribution {
  std::string path;
  /// Root path segment — "run.TVAnts" for "run.TVAnts/simulate".
  std::string app;
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// Pairs B/E events per thread (events are stably sorted by (tid,
/// ts)) and computes per-path count/total/self. Unmatched events —
/// the begin fell out of a wrapped ring, or the end never happened
/// because the run died — are dropped without poisoning later pairs.
[[nodiscard]] std::vector<SpanAttribution> attribute_spans(
    const std::vector<TraceEvent>& events);

/// The top-`top_n` rows by self time, as the sorted table
/// `peerscope trace-summary` prints (app | span | count | total ms |
/// self ms | self %; self % is of the summed self time, i.e. of all
/// traced wall time).
[[nodiscard]] std::string render_trace_summary(
    const std::vector<SpanAttribution>& rows, std::size_t top_n);

/// Attribution of one counter series ("C" events): sample count, the
/// chronologically last published value, and the peak. Spans answer
/// "where did the time go"; these answer "what did the run tally" —
/// before this table, counter events rode along in trace.json but
/// never surfaced in the summary.
struct CounterAttribution {
  std::string name;
  std::uint64_t samples = 0;
  std::int64_t last = 0;
  std::int64_t peak = 0;
};

/// Aggregates every kCounter event by name. `last` follows timestamp
/// order with file order as the tie-break, matching the writer's
/// emission order.
[[nodiscard]] std::vector<CounterAttribution> attribute_counters(
    const std::vector<TraceEvent>& events);

/// The top-`top_n` counter rows by sample count (ties by name), as
/// the second table `peerscope trace-summary` prints. Empty string
/// when there are no counter events — older traces print exactly what
/// they always did.
[[nodiscard]] std::string render_counter_summary(
    const std::vector<CounterAttribution>& rows, std::size_t top_n);

/// deterministic_trace() of the file's events — byte-identical to the
/// rendering of the in-memory snapshot the file was written from, so
/// CI can diff two runs through their trace.json artifacts.
[[nodiscard]] std::string deterministic_rendering(const TraceFile& file);

}  // namespace peerscope::obs
