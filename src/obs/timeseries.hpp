// Per-interval time-series telemetry (DESIGN.md §17).
//
// The metrics registry (metrics.hpp) answers "how much, end to end";
// this module answers "how did it evolve". Each run samples its own
// run-local counters on a *sim-time* grid — the sampling hook lives in
// sim::Engine and fires every N simulated seconds, so the sample
// points, and therefore every recorded value, are a pure function of
// (seed, configuration) and independent of the thread-pool size, the
// same §5.6 reduction contract the registry obeys. Rows land here
// keyed by (run, interval index); deterministic_series() renders the
// whole store byte-identically at any pool size for golden tests.
//
// Latency-style samples aggregate into LogHistogram, an HDR-style
// log-bucketed histogram: 32 sub-buckets per power of two bound the
// relative quantile error at ~3%, values below 64 are exact, and the
// sparse bucket list serializes compactly into the sidecar.
//
// Persistence is the `PSTS` binary sidecar: the CRC-32C record
// framing of util/framing.hpp (the container PSBT traces use too)
// around one self-contained text payload per interval,
// written through util::write_file_atomic and read back through
// util::io::read_file so storage fault injection covers it. A strict
// reader throws on any damage; a salvage reader recovers everything
// outside damaged regions with exact drop accounting.
//
// Cost contract (same as metrics/trace): nothing records unless a
// recorder is installed (install_series), and with none installed the
// swarm never arms the engine sampling hook, so series-off runs stay
// byte-identical to builds that predate this layer.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/salvage.hpp"
#include "util/mutex.hpp"
#include "util/sim_time.hpp"
#include "util/thread_annotations.hpp"

namespace peerscope::obs {

/// Log-bucketed (HDR-style) integer histogram. Bucket layout: values
/// in [0, 64) get exact unit buckets; above that, each power of two
/// splits into 32 geometric sub-buckets, so the bucket width never
/// exceeds 1/32 of the value and quantile() — which returns the
/// bucket midpoint — is within ~3.2% relative error of the exact
/// sample quantile. Negative values clamp to 0 (the domains are ns,
/// bytes, counts).
class LogHistogram {
 public:
  /// Sub-bucket resolution: 2^5 = 32 sub-buckets per octave.
  static constexpr int kSubBucketBits = 5;
  static constexpr std::uint64_t kSubBuckets = std::uint64_t{1}
                                               << kSubBucketBits;

  void record(std::int64_t value, std::uint64_t count = 1);
  void merge(const LogHistogram& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::int64_t sum() const noexcept { return sum_; }

  /// The representative value (bucket midpoint) of the bucket holding
  /// the q-th sample, q in [0, 1]. 0 when the histogram is empty.
  [[nodiscard]] std::int64_t quantile(double q) const;

  /// Sparse (bucket index, count) pairs, ascending index — the
  /// serialized form.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint64_t>>
  nonzero() const;

  /// Rebuilds from the serialized form. `sum` restores the exact
  /// recorded sum (bucket floors alone could not).
  [[nodiscard]] static LogHistogram from_buckets(
      const std::vector<std::pair<std::uint32_t, std::uint64_t>>& buckets,
      std::int64_t sum);

  /// Bucket index for a value, and the inclusive lower edge / width of
  /// a bucket — exposed for the quantile-error tests.
  [[nodiscard]] static std::uint32_t bucket_index(std::int64_t value);
  [[nodiscard]] static std::int64_t bucket_floor(std::uint32_t index);
  [[nodiscard]] static std::int64_t bucket_width(std::uint32_t index);

  friend bool operator==(const LogHistogram&, const LogHistogram&) = default;

 private:
  std::vector<std::uint64_t> buckets_;  // grown on demand
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
};

/// One interval's worth of deltas for one run: counter increments
/// since the previous grid point plus the latency samples that
/// completed inside the interval. std::map so rendering is
/// deterministic.
struct SeriesRow {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, LogHistogram> histograms;
};

struct SeriesInterval {
  std::uint64_t index = 0;  // grid point k covers ((k)·N, (k+1)·N] sim-time
  std::int64_t at_ns = 0;   // the grid point's sim time
  SeriesRow row;
};

struct RunSeries {
  std::int64_t interval_ns = 0;
  std::vector<SeriesInterval> intervals;  // ascending index
};

/// Point-in-time copy of every run's series, keyed by run id.
struct SeriesSnapshot {
  std::map<std::string, RunSeries> runs;
};

/// Central store for per-run interval rows. Each run's engine invokes
/// record() from its own thread; the mutex only serializes the rare
/// (once per sim-interval) appends, never the simulation hot path.
class TimeseriesRecorder {
 public:
  explicit TimeseriesRecorder(
      util::SimTime interval = util::SimTime::seconds(10));

  TimeseriesRecorder(const TimeseriesRecorder&) = delete;
  TimeseriesRecorder& operator=(const TimeseriesRecorder&) = delete;

  /// The sim-time sampling grid spacing runs should install.
  [[nodiscard]] util::SimTime interval() const noexcept { return interval_; }

  void record(std::string_view run, std::uint64_t index, util::SimTime at,
              SeriesRow row);

  [[nodiscard]] SeriesSnapshot snapshot() const;

 private:
  util::SimTime interval_;
  mutable util::Mutex mutex_;
  std::map<std::string, RunSeries, std::less<>> runs_ PS_GUARDED_BY(mutex_);
};

/// Installs `recorder` as the process-wide series target (nullptr
/// uninstalls). Same ownership contract as obs::install.
void install_series(TimeseriesRecorder* recorder) noexcept;

/// The installed recorder, or nullptr (the no-op fast path).
[[nodiscard]] TimeseriesRecorder* series() noexcept;

[[nodiscard]] inline bool series_enabled() noexcept {
  return series() != nullptr;
}

/// The reproducible rendering: every run, interval, counter delta and
/// histogram (count/sum/p50/p95/p99), sorted — byte-identical for two
/// fixed-seed runs at any pool size. Golden tests and CI diff this.
[[nodiscard]] std::string deterministic_series(
    const SeriesSnapshot& snapshot);

// --- PSTS sidecar ---

inline constexpr std::uint32_t kSeriesMagic = 0x50535453;  // "PSTS"
inline constexpr std::uint16_t kSeriesVersion = 1;
inline constexpr const char* kSeriesSchema = "peerscope.series/1";

/// Writes the PSTS sidecar (atomic + durable).
void write_series(const std::filesystem::path& path,
                  const SeriesSnapshot& snapshot);

/// Strict reader: throws std::runtime_error on any malformation.
[[nodiscard]] SeriesSnapshot read_series(const std::filesystem::path& path);

/// Salvage reader: recovers every interval outside damaged regions.
/// An interval whose frame was intact but whose fields did not parse
/// is counted in records_rejected and skipped alone. Only failure to
/// open the file throws.
[[nodiscard]] SeriesSnapshot read_series_salvage(
    const std::filesystem::path& path,
    util::SalvageReport* report = nullptr);

/// `peerscope timeline` renderings: long-form CSV (one line per
/// metric per interval) and a markdown table.
[[nodiscard]] std::string render_series_csv(const SeriesSnapshot& snapshot);
[[nodiscard]] std::string render_series_markdown(
    const SeriesSnapshot& snapshot);

}  // namespace peerscope::obs
