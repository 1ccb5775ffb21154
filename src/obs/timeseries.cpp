#include "obs/timeseries.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/atomic_file.hpp"
#include "util/framing.hpp"
#include "util/io_faults.hpp"

namespace peerscope::obs {

namespace {

std::atomic<TimeseriesRecorder*> g_series{nullptr};

/// One frame per interval keeps every record self-contained for the
/// salvage reader; 64 KiB leaves room for rows far wider than the
/// swarm's current counter set.
constexpr std::uint32_t kSeriesMaxRecordLen = std::uint32_t{1} << 16;

util::framing::FrameFormat series_format() {
  util::framing::FrameFormat format;
  format.magic = kSeriesMagic;
  format.version = kSeriesVersion;
  format.max_record_len = kSeriesMaxRecordLen;
  return format;
}

}  // namespace

// --- LogHistogram ---

std::uint32_t LogHistogram::bucket_index(std::int64_t value) {
  const std::uint64_t u =
      value < 0 ? 0 : static_cast<std::uint64_t>(value);
  if (u < 2 * kSubBuckets) {
    return static_cast<std::uint32_t>(u);
  }
  const int msb = 63 - std::countl_zero(u);
  const std::uint64_t sub =
      (u >> (msb - kSubBucketBits)) - kSubBuckets;
  return static_cast<std::uint32_t>(
      2 * kSubBuckets +
      static_cast<std::uint64_t>(msb - kSubBucketBits - 1) * kSubBuckets +
      sub);
}

std::int64_t LogHistogram::bucket_floor(std::uint32_t index) {
  if (index < 2 * kSubBuckets) {
    return static_cast<std::int64_t>(index);
  }
  const auto k = static_cast<std::uint32_t>(index - 2 * kSubBuckets);
  const auto octave = static_cast<std::uint32_t>(k / kSubBuckets);
  const auto sub = static_cast<std::uint32_t>(k % kSubBuckets);
  return static_cast<std::int64_t>(
      static_cast<std::uint64_t>(kSubBuckets + sub) << (octave + 1));
}

std::int64_t LogHistogram::bucket_width(std::uint32_t index) {
  if (index < 2 * kSubBuckets) {
    return 1;
  }
  const auto octave =
      static_cast<std::uint32_t>((index - 2 * kSubBuckets) / kSubBuckets);
  return std::int64_t{1} << (octave + 1);
}

void LogHistogram::record(std::int64_t value, std::uint64_t count) {
  if (count == 0) return;
  const std::uint32_t index = bucket_index(value);
  if (index >= buckets_.size()) {
    buckets_.resize(index + 1, 0);
  }
  buckets_[index] += count;
  count_ += count;
  sum_ += value * static_cast<std::int64_t>(count);
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

std::int64_t LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (target < 1) target = 1;
  if (target > count_) target = count_;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= target) {
      const auto index = static_cast<std::uint32_t>(i);
      return bucket_floor(index) + (bucket_width(index) - 1) / 2;
    }
  }
  // Unreachable when count_ matches the buckets; keep a sane fallback.
  return bucket_floor(static_cast<std::uint32_t>(buckets_.size()) - 1);
}

std::vector<std::pair<std::uint32_t, std::uint64_t>> LogHistogram::nonzero()
    const {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] != 0) {
      out.emplace_back(static_cast<std::uint32_t>(i), buckets_[i]);
    }
  }
  return out;
}

LogHistogram LogHistogram::from_buckets(
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& buckets,
    std::int64_t sum) {
  LogHistogram h;
  for (const auto& [index, count] : buckets) {
    if (index >= h.buckets_.size()) {
      h.buckets_.resize(index + 1, 0);
    }
    h.buckets_[index] += count;
    h.count_ += count;
  }
  h.sum_ = sum;
  return h;
}

// --- TimeseriesRecorder ---

TimeseriesRecorder::TimeseriesRecorder(util::SimTime interval)
    : interval_(interval) {
  if (interval <= util::SimTime::zero()) {
    throw std::invalid_argument(
        "TimeseriesRecorder: interval must be positive");
  }
}

void TimeseriesRecorder::record(std::string_view run, std::uint64_t index,
                                util::SimTime at, SeriesRow row) {
  // Run keys become tab-separated PSTS fields; keep them field-safe.
  std::string key{run};
  for (char& c : key) {
    if (c == '\t' || c == '\n') c = ' ';
  }
  {
    const util::MutexLock lock{mutex_};
    auto [it, inserted] = runs_.try_emplace(std::move(key));
    if (inserted) {
      it->second.interval_ns = interval_.ns();
    }
    it->second.intervals.push_back(
        SeriesInterval{index, at.ns(), std::move(row)});
  }
  PEERSCOPE_METRIC_INC("obs.series.intervals_recorded");
}

SeriesSnapshot TimeseriesRecorder::snapshot() const {
  SeriesSnapshot snap;
  {
    const util::MutexLock lock{mutex_};
    for (const auto& [run, data] : runs_) {
      snap.runs.emplace(run, data);
    }
  }
  // Each engine appends its own intervals in order, but a run retried
  // under the same key restarts at index 0; sorting here keeps the
  // snapshot canonical regardless of recording history.
  for (auto& [run, data] : snap.runs) {
    std::stable_sort(data.intervals.begin(), data.intervals.end(),
                     [](const SeriesInterval& a, const SeriesInterval& b) {
                       return a.index < b.index;
                     });
  }
  return snap;
}

void install_series(TimeseriesRecorder* recorder) noexcept {
  g_series.store(recorder, std::memory_order_release);
}

TimeseriesRecorder* series() noexcept {
  return g_series.load(std::memory_order_acquire);
}

// --- renderings ---

std::string deterministic_series(const SeriesSnapshot& snapshot) {
  std::string out{kSeriesSchema};
  out += '\n';
  for (const auto& [run, data] : snapshot.runs) {
    out += "run " + run + "\n";
    out += "  interval_ns " + std::to_string(data.interval_ns) + "\n";
    for (const SeriesInterval& interval : data.intervals) {
      out += "  i " + std::to_string(interval.index) + " at_ns " +
             std::to_string(interval.at_ns) + "\n";
      for (const auto& [name, value] : interval.row.counters) {
        out += "    c " + name + " " + std::to_string(value) + "\n";
      }
      for (const auto& [name, hist] : interval.row.histograms) {
        out += "    h " + name + " count " + std::to_string(hist.count()) +
               " sum " + std::to_string(hist.sum()) + " p50 " +
               std::to_string(hist.quantile(0.50)) + " p95 " +
               std::to_string(hist.quantile(0.95)) + " p99 " +
               std::to_string(hist.quantile(0.99)) + "\n";
      }
    }
  }
  return out;
}

// --- PSTS sidecar ---

namespace {

std::string encode_interval(const std::string& run,
                            std::int64_t interval_ns,
                            const SeriesInterval& interval) {
  std::string payload = "i\t" + run + "\t" + std::to_string(interval_ns) +
                        "\t" + std::to_string(interval.index) + "\t" +
                        std::to_string(interval.at_ns);
  for (const auto& [name, value] : interval.row.counters) {
    payload += "\tc:" + name + "=" + std::to_string(value);
  }
  for (const auto& [name, hist] : interval.row.histograms) {
    payload += "\th:" + name + "=" + std::to_string(hist.sum()) + "@";
    bool first = true;
    for (const auto& [index, count] : hist.nonzero()) {
      if (!first) payload += ',';
      first = false;
      payload += std::to_string(index) + ":" + std::to_string(count);
    }
  }
  return payload;
}

/// Strict whole-token u64 parse; false on any malformation.
[[nodiscard]] bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = value;
  return true;
}

[[nodiscard]] bool parse_i64(std::string_view text, std::int64_t& out) {
  const bool negative = !text.empty() && text.front() == '-';
  if (negative) text.remove_prefix(1);
  std::uint64_t magnitude = 0;
  if (!parse_u64(text, magnitude)) return false;
  out = negative ? -static_cast<std::int64_t>(magnitude)
                 : static_cast<std::int64_t>(magnitude);
  return true;
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

/// Parses one interval payload into `snapshot`. Returns false on any
/// malformed field (the caller decides strict-throw vs salvage-skip).
[[nodiscard]] bool decode_interval(std::string_view payload,
                                   SeriesSnapshot& snapshot) {
  const auto fields = split(payload, '\t');
  if (fields.size() < 5 || fields[0] != "i") return false;
  const std::string run{fields[1]};
  std::int64_t interval_ns = 0;
  SeriesInterval interval;
  if (!parse_i64(fields[2], interval_ns) ||
      !parse_u64(fields[3], interval.index) ||
      !parse_i64(fields[4], interval.at_ns)) {
    return false;
  }
  for (std::size_t i = 5; i < fields.size(); ++i) {
    const std::string_view field = fields[i];
    if (field.rfind("c:", 0) == 0) {
      const std::size_t eq = field.find('=');
      if (eq == std::string_view::npos || eq <= 2) return false;
      std::uint64_t value = 0;
      if (!parse_u64(field.substr(eq + 1), value)) return false;
      interval.row.counters.emplace(field.substr(2, eq - 2), value);
    } else if (field.rfind("h:", 0) == 0) {
      const std::size_t eq = field.find('=');
      const std::size_t at = field.find('@');
      if (eq == std::string_view::npos || at == std::string_view::npos ||
          eq <= 2 || at < eq) {
        return false;
      }
      std::int64_t sum = 0;
      if (!parse_i64(field.substr(eq + 1, at - eq - 1), sum)) return false;
      std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
      const std::string_view pair_list = field.substr(at + 1);
      if (!pair_list.empty()) {
        for (const std::string_view pair : split(pair_list, ',')) {
          const std::size_t colon = pair.find(':');
          if (colon == std::string_view::npos) return false;
          std::uint64_t index = 0;
          std::uint64_t count = 0;
          if (!parse_u64(pair.substr(0, colon), index) ||
              !parse_u64(pair.substr(colon + 1), count) ||
              index > std::uint64_t{1} << 20) {
            return false;
          }
          buckets.emplace_back(static_cast<std::uint32_t>(index), count);
        }
      }
      interval.row.histograms.emplace(
          field.substr(2, eq - 2), LogHistogram::from_buckets(buckets, sum));
    } else {
      return false;
    }
  }
  auto [it, inserted] = snapshot.runs.try_emplace(run);
  if (inserted) {
    it->second.interval_ns = interval_ns;
  }
  it->second.intervals.push_back(std::move(interval));
  return true;
}

}  // namespace

void write_series(const std::filesystem::path& path,
                  const SeriesSnapshot& snapshot) {
  std::uint64_t count = 1;  // the schema record
  for (const auto& [run, data] : snapshot.runs) {
    count += data.intervals.size();
  }
  std::string buf;
  util::framing::FrameEncoder encoder{series_format(), buf, count};
  encoder.append(kSeriesSchema);
  for (const auto& [run, data] : snapshot.runs) {
    for (const SeriesInterval& interval : data.intervals) {
      encoder.append(encode_interval(run, data.interval_ns, interval));
    }
  }
  util::write_file_atomic(path, buf);
  PEERSCOPE_METRIC_INC("obs.series.files_written");
}

namespace {

/// Fills `snapshot` from a decode: one schema record (`saw_schema`
/// records it; a second is rejected), every other payload an interval.
util::framing::FrameVisitor series_reader(SeriesSnapshot& snapshot,
                                          bool& saw_schema) {
  return {.payload = [&snapshot, &saw_schema](std::string_view payload) {
    if (payload == kSeriesSchema) {
      return !std::exchange(saw_schema, true);
    }
    return decode_interval(payload, snapshot);
  }};
}

}  // namespace

SeriesSnapshot read_series(const std::filesystem::path& path) {
  const auto buf = util::io::read_file(path);
  if (!buf) {
    throw std::runtime_error("read_series: cannot open " + path.string());
  }
  SeriesSnapshot snapshot;
  bool saw_schema = false;
  util::framing::decode_frames(series_format(), *buf,
                               series_reader(snapshot, saw_schema),
                               path.string());
  if (!saw_schema) {
    throw std::runtime_error("read_series: missing " +
                             std::string{kSeriesSchema} + " header in " +
                             path.string());
  }
  PEERSCOPE_METRIC_INC("obs.series.files_read");
  return snapshot;
}

SeriesSnapshot read_series_salvage(const std::filesystem::path& path,
                                   util::SalvageReport* report) {
  util::SalvageReport local;
  util::SalvageReport& rep = report ? *report : local;
  rep = util::SalvageReport{};
  const auto buf = util::io::read_file(path);
  if (!buf) {
    throw std::runtime_error("read_series_salvage: cannot open " +
                             path.string());
  }
  SeriesSnapshot snapshot;
  bool saw_schema = false;
  util::framing::decode_frames_salvage(
      series_format(), *buf, series_reader(snapshot, saw_schema), rep);
  if (obs::enabled()) {
    obs::counter("obs.series.files_read").add();
    obs::counter("obs.series.records_salvaged")
        .add(rep.records_recovered - (saw_schema ? 1 : 0));
    obs::counter("obs.series.records_dropped").add(rep.records_skipped);
  }
  return snapshot;
}

// --- timeline renderings ---

namespace {

std::string csv_safe(std::string text) {
  for (char& c : text) {
    if (c == ',' || c == '\n') c = ';';
  }
  return text;
}

std::string seconds_cell(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(ns) / 1e9);
  return buf;
}

}  // namespace

std::string render_series_csv(const SeriesSnapshot& snapshot) {
  std::string out = "run,index,at_ns,metric,value,count,sum,p50,p95,p99\n";
  for (const auto& [run, data] : snapshot.runs) {
    const std::string safe_run = csv_safe(run);
    for (const SeriesInterval& interval : data.intervals) {
      const std::string prefix = safe_run + "," +
                                 std::to_string(interval.index) + "," +
                                 std::to_string(interval.at_ns) + ",";
      for (const auto& [name, value] : interval.row.counters) {
        out += prefix + csv_safe(name) + "," + std::to_string(value) +
               ",,,,,\n";
      }
      for (const auto& [name, hist] : interval.row.histograms) {
        out += prefix + csv_safe(name) + ",," +
               std::to_string(hist.count()) + "," +
               std::to_string(hist.sum()) + "," +
               std::to_string(hist.quantile(0.50)) + "," +
               std::to_string(hist.quantile(0.95)) + "," +
               std::to_string(hist.quantile(0.99)) + "\n";
      }
    }
  }
  return out;
}

std::string render_series_markdown(const SeriesSnapshot& snapshot) {
  std::string out =
      "| run | i | t [s] | metric | value | count | p50 | p95 | p99 |\n"
      "|---|---|---|---|---|---|---|---|---|\n";
  for (const auto& [run, data] : snapshot.runs) {
    for (const SeriesInterval& interval : data.intervals) {
      const std::string prefix = "| " + run + " | " +
                                 std::to_string(interval.index) + " | " +
                                 seconds_cell(interval.at_ns) + " | ";
      for (const auto& [name, value] : interval.row.counters) {
        out += prefix + name + " | " + std::to_string(value) +
               " |  |  |  |  |\n";
      }
      for (const auto& [name, hist] : interval.row.histograms) {
        out += prefix + name + " |  | " + std::to_string(hist.count()) +
               " | " + std::to_string(hist.quantile(0.50)) + " | " +
               std::to_string(hist.quantile(0.95)) + " | " +
               std::to_string(hist.quantile(0.99)) + " |\n";
      }
    }
  }
  return out;
}

}  // namespace peerscope::obs
