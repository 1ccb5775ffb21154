// Shared bench-harness plumbing: the environment knobs every bench
// reads (BenchConfig), the metrics/trace/series/bench-JSON sidecar
// sessions, and the paper's Table II-IV values (aware/paper.hpp) under
// the `bench::` names perfbench/ reads.
#pragma once

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <sys/resource.h>

#include "aware/paper.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/trace_summary.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace peerscope::bench {

namespace detail {

/// Strict positive-integer parse for environment knobs: the whole
/// token must be a base-10 number in [1, max]. atoll-style silent
/// acceptance of garbage ("30x" -> 30, "banana" -> 0, "-5" wrapping
/// through strtoull) turned typos into surprising runs.
inline std::uint64_t env_u64_or_die(const char* var, const char* text,
                                    std::uint64_t max) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  const bool negative = [text] {
    for (const char* p = text; *p != '\0'; ++p) {
      if (*p == '-') return true;
      if (*p != ' ' && *p != '\t') return false;
    }
    return false;
  }();
  if (end == text || *end != '\0' || negative || errno == ERANGE ||
      v == 0 || v > max) {
    std::cerr << "invalid " << var << "=\"" << text << "\"\n"
              << "usage: " << var
              << " must be a positive base-10 integer <= " << max << '\n';
    std::exit(2);
  }
  return v;
}

}  // namespace detail

/// Default reproduction scale (DESIGN.md §6): 300 simulated seconds,
/// profile-default populations. Override via environment for quick
/// runs: PEERSCOPE_BENCH_SECONDS, PEERSCOPE_BENCH_SEED; set
/// PEERSCOPE_BENCH_FULL_SCALE (any value) to run bench_micro_engine on
/// the paper-true 181,729-peer swarm. Malformed values abort with a
/// usage message (exit 2) instead of running at a silently-mangled
/// scale.
struct BenchConfig {
  std::int64_t seconds = 300;
  std::uint64_t seed = 42;
  bool full_scale = false;

  static BenchConfig from_env() {
    BenchConfig cfg;
    if (const char* s = std::getenv("PEERSCOPE_BENCH_SECONDS")) {
      // A year of simulated time is already far past any useful run.
      cfg.seconds = static_cast<std::int64_t>(detail::env_u64_or_die(
          "PEERSCOPE_BENCH_SECONDS", s, 31'536'000ULL));
    }
    cfg.full_scale = std::getenv("PEERSCOPE_BENCH_FULL_SCALE") != nullptr;
    if (const char* s = std::getenv("PEERSCOPE_BENCH_SEED")) {
      cfg.seed = detail::env_u64_or_die(
          "PEERSCOPE_BENCH_SEED", s,
          std::numeric_limits<std::uint64_t>::max());
    }
    return cfg;
  }
};

/// PEERSCOPE_BENCH_METRICS hook: construct one of these at the top of
/// a bench main. When the variable names a path, a metrics registry is
/// installed for the process lifetime and the full metrics.json is
/// written there at scope exit; when unset this is inert and the bench
/// output is byte-identical to an uninstrumented build.
class MetricsSession {
 public:
  MetricsSession() {
    if (const char* path = std::getenv("PEERSCOPE_BENCH_METRICS")) {
      path_ = path;
      registry_ = std::make_unique<obs::MetricsRegistry>();
      obs::install(registry_.get());
    }
  }
  ~MetricsSession() {
    if (!registry_) return;
    obs::install(nullptr);
    try {
      obs::write_metrics_json(path_, registry_->snapshot());
      std::cerr << "metrics: wrote " << path_.string() << '\n';
    } catch (const std::exception& error) {
      std::cerr << "metrics: " << error.what() << '\n';
    }
  }

  MetricsSession(const MetricsSession&) = delete;
  MetricsSession& operator=(const MetricsSession&) = delete;

 private:
  std::filesystem::path path_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
};

/// PEERSCOPE_BENCH_TRACE hook: the tracing sibling of MetricsSession.
/// When the variable names a path, an event recorder is installed for
/// the process lifetime and the Chrome-compatible trace.json (schema
/// peerscope.trace/1) is written there at scope exit; when unset this
/// is inert and the bench output is byte-identical to an
/// uninstrumented build. Construct it next to MetricsSession so drop
/// accounting lands in the metrics sidecar too.
class TraceSession {
 public:
  TraceSession() {
    if (const char* path = std::getenv("PEERSCOPE_BENCH_TRACE")) {
      path_ = path;
      recorder_ = std::make_unique<obs::TraceRecorder>();
      obs::install_tracer(recorder_.get());
    }
  }
  ~TraceSession() {
    if (!recorder_) return;
    obs::install_tracer(nullptr);
    try {
      obs::write_trace_json(path_, recorder_->snapshot());
      std::cerr << "trace: wrote " << path_.string() << '\n';
    } catch (const std::exception& error) {
      std::cerr << "trace: " << error.what() << '\n';
    }
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  std::filesystem::path path_;
  std::unique_ptr<obs::TraceRecorder> recorder_;
};

/// PEERSCOPE_BENCH_SERIES hook: the time-series sibling of
/// MetricsSession. When the variable names a path, a timeseries
/// recorder is installed for the process lifetime — every run arms
/// its sim-time sampling grid (PEERSCOPE_BENCH_SERIES_SECONDS
/// intervals, default 10) — and the PSTS sidecar is written there at
/// scope exit; read it with `peerscope timeline`. When unset this is
/// inert and the bench output is byte-identical to an uninstrumented
/// build.
class SeriesSession {
 public:
  SeriesSession() {
    if (const char* path = std::getenv("PEERSCOPE_BENCH_SERIES")) {
      path_ = path;
      std::int64_t interval_s = 10;
      if (const char* s = std::getenv("PEERSCOPE_BENCH_SERIES_SECONDS")) {
        interval_s = static_cast<std::int64_t>(detail::env_u64_or_die(
            "PEERSCOPE_BENCH_SERIES_SECONDS", s, 31'536'000ULL));
      }
      recorder_ = std::make_unique<obs::TimeseriesRecorder>(
          util::SimTime::seconds(interval_s));
      obs::install_series(recorder_.get());
    }
  }
  ~SeriesSession() {
    if (!recorder_) return;
    obs::install_series(nullptr);
    try {
      obs::write_series(path_, recorder_->snapshot());
      std::cerr << "series: wrote " << path_.string() << '\n';
    } catch (const std::exception& error) {
      std::cerr << "series: " << error.what() << '\n';
    }
  }

  SeriesSession(const SeriesSession&) = delete;
  SeriesSession& operator=(const SeriesSession&) = delete;

 private:
  std::filesystem::path path_;
  std::unique_ptr<obs::TimeseriesRecorder> recorder_;
};

/// The peerscope.bench/2 document: one JSON object on one line, with
/// `phases` in the given order. Doubles take iostream's default six
/// significant digits, the spelling of every committed snapshot.
inline std::string bench_json(std::string_view name, double wall_s,
                              std::uint64_t events, long peak_rss_kb,
                              const std::vector<obs::SpanAttribution>& phases) {
  namespace json = util::json;
  std::string out = "{\"schema\":\"peerscope.bench/2\",\"bench\":";
  json::append_string(out, name);
  out += ",\"wall_s\":";
  json::append_number(out, wall_s, 6);
  out += ",\"events_executed\":";
  json::append_number(out, events);
  out += ",\"events_per_s\":";
  json::append_number(
      out, wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0, 6);
  out += ",\"peak_rss_kb\":";
  json::append_number(out, peak_rss_kb);
  out += ",\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"path\":";
    json::append_string(out, phases[i].path);
    out += ",\"count\":";
    json::append_number(out, phases[i].count);
    out += ",\"total_ns\":";
    json::append_number(out, phases[i].total_ns);
    out += ",\"self_ns\":";
    json::append_number(out, phases[i].self_ns);
    out += '}';
  }
  out += "]}\n";
  return out;
}

/// PEERSCOPE_BENCH_JSON hook: machine-readable performance summary for
/// CI trend tracking. When the variable names a path, the session
/// measures the bench's wall time, simulation throughput, peak RSS and
/// per-phase span attribution, and writes them at scope exit as a
/// one-object JSON document (schema peerscope.bench/2) via the
/// atomic-write path, so a killed bench never leaves a torn artifact.
/// When unset this is inert.
///
/// The `phases` array carries one row per traced span path —
/// count, total wall ns and self wall ns (total minus directly nested
/// children), sorted by path — computed with the same
/// obs::attribute_spans pass `peerscope trace-summary` uses. That is
/// what lets the CI trajectory gate localize a wall-time regression to
/// a phase instead of just flagging the end-to-end number.
///
/// Construct it FIRST in main (before MetricsSession/TraceSession):
/// when no metrics registry is requested the session installs a
/// private one to count sim.events_executed, and when no tracer is
/// requested it installs a private recorder to capture span events;
/// when PEERSCOPE_BENCH_METRICS / PEERSCOPE_BENCH_TRACE already
/// claimed the global slots the session leaves them alone and reports
/// throughput as 0 / phases as empty (the full data is in those
/// sidecars instead).
class BenchJsonSession {
 public:
  explicit BenchJsonSession(std::string name) : name_(std::move(name)) {
    if (const char* path = std::getenv("PEERSCOPE_BENCH_JSON")) {
      path_ = path;
      started_ = std::chrono::steady_clock::now();
      if (!obs::enabled() && !std::getenv("PEERSCOPE_BENCH_METRICS")) {
        registry_ = std::make_unique<obs::MetricsRegistry>();
        obs::install(registry_.get());
      }
      if (!obs::trace_enabled() && !std::getenv("PEERSCOPE_BENCH_TRACE")) {
        recorder_ = std::make_unique<obs::TraceRecorder>();
        obs::install_tracer(recorder_.get());
      }
    }
  }
  ~BenchJsonSession() {
    if (path_.empty()) return;
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_)
            .count();
    std::uint64_t events = 0;
    if (registry_) {
      obs::install(nullptr);
      const auto snapshot = registry_->snapshot();
      const auto it = snapshot.counters.find("sim.events_executed");
      if (it != snapshot.counters.end()) events = it->second;
    }
    std::vector<obs::SpanAttribution> phases;
    if (recorder_) {
      obs::install_tracer(nullptr);
      phases = obs::attribute_spans(recorder_->snapshot().events);
      std::sort(phases.begin(), phases.end(),
                [](const obs::SpanAttribution& a,
                   const obs::SpanAttribution& b) { return a.path < b.path; });
    }
    ::rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    try {
      util::write_file_atomic(
          path_, bench_json(name_, wall_s, events, usage.ru_maxrss, phases));
      std::cerr << "bench-json: wrote " << path_.string() << '\n';
    } catch (const std::exception& error) {
      std::cerr << "bench-json: " << error.what() << '\n';
    }
  }

  BenchJsonSession(const BenchJsonSession&) = delete;
  BenchJsonSession& operator=(const BenchJsonSession&) = delete;

 private:
  std::string name_;
  std::filesystem::path path_;
  std::chrono::steady_clock::time_point started_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::TraceRecorder> recorder_;
};

inline std::string fmt(double v, int precision = 1) {
  return util::TextTable::num(v, precision);
}

inline std::string fmt_opt(const std::optional<double>& v,
                           int precision = 1) {
  return v ? fmt(*v, precision) : "-";
}

// The paper's published tables under the names perfbench/ reads.
using aware::kPaperTable2;
using aware::kPaperTable3;
using aware::kPaperTable4;

}  // namespace peerscope::bench
