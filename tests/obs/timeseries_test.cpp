#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/scratch_dir.hpp"
#include "util/crc32c.hpp"

namespace peerscope::obs {
namespace {

using util::SimTime;

// ---------------------------------------------------------------- //
// LogHistogram

TEST(LogHistogram, SmallValuesAreExact) {
  LogHistogram h;
  for (std::int64_t v = 0; v < 64; ++v) {
    EXPECT_EQ(LogHistogram::bucket_floor(LogHistogram::bucket_index(v)), v);
    EXPECT_EQ(LogHistogram::bucket_width(LogHistogram::bucket_index(v)), 1);
    h.record(v);
  }
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.sum(), 63 * 64 / 2);
  // With exact unit buckets the quantile is the exact sample quantile.
  EXPECT_EQ(h.quantile(0.5), 31);
  EXPECT_EQ(h.quantile(1.0), 63);
  EXPECT_EQ(h.quantile(0.0), 0);
}

TEST(LogHistogram, BucketEdgesAreConsistent) {
  // Every probe value must land inside [floor, floor + width) of its
  // own bucket, and bucket indexes must be monotone in the value.
  std::uint32_t prev_index = 0;
  for (std::int64_t v : {0L, 1L, 63L, 64L, 65L, 127L, 128L, 1000L, 4095L,
                         4096L, 1'000'000L, 123'456'789L,
                         9'000'000'000'000L}) {
    const std::uint32_t index = LogHistogram::bucket_index(v);
    EXPECT_GE(index, prev_index);
    prev_index = index;
    const std::int64_t floor = LogHistogram::bucket_floor(index);
    const std::int64_t width = LogHistogram::bucket_width(index);
    EXPECT_LE(floor, v) << v;
    EXPECT_GT(floor + width, v) << v;
  }
}

TEST(LogHistogram, NegativeValuesClampToZero) {
  LogHistogram h;
  h.record(-50);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.quantile(0.99), 0);
}

TEST(LogHistogram, AllZeroSamplesQuantileIsZero) {
  LogHistogram h;
  h.record(0, 10'000);
  EXPECT_EQ(h.count(), 10'000u);
  EXPECT_EQ(h.sum(), 0);
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), 0) << q;
  }
}

TEST(LogHistogram, EmptyQuantileIsZero) {
  const LogHistogram h;
  EXPECT_EQ(h.quantile(0.99), 0);
}

TEST(LogHistogram, SingleBucketQuantilesReturnThatBucketsMidpoint) {
  // Every sample in one bucket: p50 = p95 = p99, within the bucket.
  LogHistogram h;
  h.record(100, 5'000);
  const std::uint32_t index = LogHistogram::bucket_index(100);
  const std::int64_t floor = LogHistogram::bucket_floor(index);
  const std::int64_t width = LogHistogram::bucket_width(index);
  const std::int64_t mid = floor + (width - 1) / 2;
  EXPECT_EQ(h.quantile(0.5), mid);
  EXPECT_EQ(h.quantile(0.95), mid);
  EXPECT_EQ(h.quantile(0.99), mid);
  EXPECT_LE(floor, 100);
  EXPECT_GT(floor + width, 100);
}

TEST(LogHistogram, QuantileRelativeErrorStaysUnderFivePercent) {
  // 32 sub-buckets per octave bound the midpoint error at ~3.2%;
  // assert the documented 5% envelope against exact sample quantiles
  // for three very different shapes.
  const auto check = [](const std::vector<std::int64_t>& samples) {
    LogHistogram h;
    for (const std::int64_t v : samples) h.record(v);
    std::vector<std::int64_t> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.50, 0.95, 0.99}) {
      const std::size_t rank = std::min(
          sorted.size() - 1,
          static_cast<std::size_t>(
              std::ceil(q * static_cast<double>(sorted.size()))) -
              1);
      const double exact = static_cast<double>(sorted[rank]);
      const double approx = static_cast<double>(h.quantile(q));
      ASSERT_GT(exact, 0.0);
      EXPECT_LE(std::abs(approx - exact) / exact, 0.05)
          << "q=" << q << " exact=" << exact << " approx=" << approx;
    }
  };

  std::vector<std::int64_t> uniform;
  for (std::int64_t v = 1; v <= 20'000; ++v) uniform.push_back(v);
  check(uniform);

  std::vector<std::int64_t> geometric;
  for (std::int64_t v = 1; v < 4'000'000'000L; v = v * 3 / 2 + 1) {
    geometric.push_back(v);
  }
  check(geometric);

  std::vector<std::int64_t> heavy_tail;  // ns-scale latencies
  for (std::int64_t i = 1; i <= 5'000; ++i) {
    heavy_tail.push_back(1'000 + i);             // dense body
    if (i % 100 == 0) heavy_tail.push_back(i * 1'000'000);  // sparse tail
  }
  check(heavy_tail);
}

TEST(LogHistogram, MergeAndBucketRoundTripPreserveEverything) {
  LogHistogram a;
  LogHistogram b;
  for (std::int64_t v = 1; v < 10'000; v += 7) a.record(v);
  for (std::int64_t v = 50'000; v < 90'000; v += 11) b.record(v, 2);
  LogHistogram merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count(), a.count() + b.count());
  EXPECT_EQ(merged.sum(), a.sum() + b.sum());

  const LogHistogram rebuilt =
      LogHistogram::from_buckets(merged.nonzero(), merged.sum());
  EXPECT_EQ(rebuilt, merged);
  EXPECT_EQ(rebuilt.quantile(0.95), merged.quantile(0.95));
}

// ---------------------------------------------------------------- //
// Recorder + PSTS sidecar

class TimeseriesFileTest : public ::testing::Test {
 protected:
  const test::ScratchDir dir_{"peerscope_timeseries_test"};
};

SeriesSnapshot sample_snapshot() {
  TimeseriesRecorder recorder{SimTime::seconds(10)};
  for (std::uint64_t k = 0; k < 5; ++k) {
    SeriesRow row;
    row.counters["sim.events_executed"] = 1'000 + k;
    row.counters["p2p.chunks_delivered"] = 10 * k;
    LogHistogram h;
    h.record(static_cast<std::int64_t>(1'000'000 + k * 500), 3 + k);
    row.histograms["p2p.discovery.rejoin_latency_ns"] = h;
    recorder.record("TVAnts#seed=1#dur=50000000000", k,
                    SimTime::seconds(10 * static_cast<std::int64_t>(k + 1)),
                    std::move(row));
  }
  SeriesRow other;
  other.counters["sim.events_executed"] = 7;
  recorder.record("PPLive#seed=2#dur=10000000000", 0, SimTime::seconds(10),
                  std::move(other));
  return recorder.snapshot();
}

TEST_F(TimeseriesFileTest, WriteReadRoundTripIsLossless) {
  const SeriesSnapshot before = sample_snapshot();
  const auto path = dir_ / "series.psts";
  write_series(path, before);
  const SeriesSnapshot after = read_series(path);
  EXPECT_EQ(deterministic_series(after), deterministic_series(before));
  ASSERT_EQ(after.runs.size(), 2u);
  const RunSeries& run = after.runs.at("TVAnts#seed=1#dur=50000000000");
  EXPECT_EQ(run.interval_ns, SimTime::seconds(10).ns());
  ASSERT_EQ(run.intervals.size(), 5u);
  EXPECT_EQ(run.intervals[2].row.counters.at("p2p.chunks_delivered"), 20u);
  const LogHistogram& h =
      run.intervals[0].row.histograms.at("p2p.discovery.rejoin_latency_ns");
  EXPECT_EQ(h.count(), 3u);
}

TEST_F(TimeseriesFileTest, StrictReaderThrowsOnCorruptionSalvageRecovers) {
  const auto path = dir_ / "series.psts";
  write_series(path, sample_snapshot());

  // Flip a byte late in the file (inside a framed payload).
  // peerscope-lint: allow(no-raw-artifact-io): corrupts a test fixture
  std::fstream f{path, std::ios::in | std::ios::out | std::ios::binary};
  ASSERT_TRUE(f.good());
  f.seekp(-10, std::ios::end);
  f.put('\xff');
  f.close();

  EXPECT_THROW((void)read_series(path), std::runtime_error);

  util::SalvageReport report;
  const SeriesSnapshot salvaged = read_series_salvage(path, &report);
  EXPECT_TRUE(report.header_valid);
  EXPECT_GT(report.records_skipped, 0u);
  // The undamaged intervals survive.
  EXPECT_FALSE(salvaged.runs.empty());
}

TEST_F(TimeseriesFileTest, ReadersRejectMissingAndForeignFiles) {
  EXPECT_THROW((void)read_series(dir_ / "absent.psts"), std::runtime_error);
  const auto path = dir_ / "foreign.psts";
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::ofstream{path} << "this is not a PSTS file at all";
  EXPECT_THROW((void)read_series(path), std::runtime_error);
  util::SalvageReport report;
  EXPECT_TRUE(read_series_salvage(path, &report).runs.empty());
  EXPECT_FALSE(report.header_valid);

  // A CRC-valid header declaring 2^40 records over an empty body: the
  // count is accounted for, never allocated for.
  write_series(path, SeriesSnapshot{});
  std::string header;
  {
    std::ifstream in{path, std::ios::binary};
    header.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }
  header.resize(24);
  const std::uint64_t declared = std::uint64_t{1} << 40;
  std::memcpy(&header[8], &declared, sizeof declared);
  const std::uint32_t crc =
      util::crc32c(std::string_view{header}.substr(0, 20));
  std::memcpy(&header[20], &crc, sizeof crc);
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::ofstream{path, std::ios::binary | std::ios::trunc} << header;
  EXPECT_THROW((void)read_series(path), std::runtime_error);
  EXPECT_TRUE(read_series_salvage(path, &report).runs.empty());
  EXPECT_TRUE(report.header_valid);
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.records_recovered, 0u);
  EXPECT_EQ(report.records_skipped, declared);
}

// Pinned encoded bytes (size + CRC-32C) of a fixed snapshot: any change
// to the PSTS on-disk format fails here.
TEST_F(TimeseriesFileTest, EncodedBytesMatchTheGolden) {
  const auto path = dir_ / "golden.psts";
  write_series(path, sample_snapshot());
  std::ifstream in{path, std::ios::binary};
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  EXPECT_EQ(bytes.size(), 968u);
  EXPECT_EQ(util::crc32c(bytes), 0x34fd2453u);
}

TEST(Timeseries, RecorderSanitizesKeysAndKeepsIntervalsSorted) {
  TimeseriesRecorder recorder{SimTime::seconds(1)};
  SeriesRow row;
  row.counters["sim.events_executed"] = 1;
  recorder.record("bad\tkey\nname", 0, SimTime::seconds(1), row);
  recorder.record("run", 1, SimTime::seconds(2), row);
  recorder.record("run", 0, SimTime::seconds(1), row);
  const SeriesSnapshot snapshot = recorder.snapshot();
  EXPECT_EQ(snapshot.runs.count("bad key name"), 1u);
  const auto& intervals = snapshot.runs.at("run").intervals;
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_LT(intervals[0].index, intervals[1].index);
}

TEST(Timeseries, DeterministicSeriesIsStableAcrossInsertionOrder) {
  SeriesRow row_a;
  row_a.counters["z.metric"] = 1;
  row_a.counters["a.metric"] = 2;
  SeriesRow row_b = row_a;

  TimeseriesRecorder first{SimTime::seconds(1)};
  first.record("beta", 0, SimTime::seconds(1), row_a);
  first.record("alpha", 0, SimTime::seconds(1), row_a);
  TimeseriesRecorder second{SimTime::seconds(1)};
  second.record("alpha", 0, SimTime::seconds(1), row_b);
  second.record("beta", 0, SimTime::seconds(1), row_b);

  const std::string rendering = deterministic_series(first.snapshot());
  EXPECT_EQ(rendering, deterministic_series(second.snapshot()));
  EXPECT_NE(rendering.find("peerscope.series/1"), std::string::npos);
  EXPECT_LT(rendering.find("run alpha"), rendering.find("run beta"));
}

TEST(Timeseries, RenderingsCoverCountersAndHistograms) {
  const SeriesSnapshot snapshot = sample_snapshot();
  const std::string csv = render_series_csv(snapshot);
  EXPECT_NE(csv.find("run,index,at_ns,metric,value,count,sum,p50,p95,p99"),
            std::string::npos);
  EXPECT_NE(csv.find("p2p.chunks_delivered,20"), std::string::npos);
  EXPECT_NE(csv.find("p2p.discovery.rejoin_latency_ns"), std::string::npos);
  const std::string markdown = render_series_markdown(snapshot);
  EXPECT_NE(markdown.find('|'), std::string::npos);
  EXPECT_NE(markdown.find("TVAnts#seed=1#dur=50000000000"),
            std::string::npos);
}

TEST(Timeseries, InstallSeriesTogglesTheGlobalSlot) {
  EXPECT_FALSE(series_enabled());
  TimeseriesRecorder recorder;
  install_series(&recorder);
  EXPECT_TRUE(series_enabled());
  EXPECT_EQ(series(), &recorder);
  install_series(nullptr);
  EXPECT_FALSE(series_enabled());
}

}  // namespace
}  // namespace peerscope::obs
