#include "exp/supervisor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <functional>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "exp/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_summary.hpp"
#include "sim/engine.hpp"
#include "support/scratch_dir.hpp"
#include "util/cancel.hpp"
#include "util/framing.hpp"

namespace peerscope::exp {
namespace {

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

/// Spec whose wall time comfortably exceeds the 20 ms deadline used by
/// the timeout tests no matter how fast the event core gets: same tiny
/// swarm, but a simulated horizon long enough to keep the engine busy
/// past the deadline on any hardware.
RunSpec deadline_spec(std::uint64_t seed = 1) {
  RunSpec spec = tiny_spec(seed);
  spec.duration = SimTime::seconds(3600);
  return spec;
}

/// Cheap stand-in result for run_fn hooks: loadable from a journal
/// blob (non-empty app, aligned probe/vantage counts) and
/// distinguishable by the marker.
RunResult fake_result(std::uint64_t marker) {
  RunResult result;
  result.observations.app = "FakeApp";
  result.observations.duration = SimTime::seconds(1);
  result.counters.chunks_delivered = marker;
  return result;
}

class SupervisorTest : public ::testing::Test {
 protected:
  const test::ScratchDir dir_{"peerscope_supervisor_test"};
};

TEST_F(SupervisorTest, FailureIsCapturedNotThrown) {
  const RunSpec specs[] = {tiny_spec(1), tiny_spec(2), tiny_spec(3)};
  SupervisorConfig config;
  config.run_fn = [](const net::AsTopology&, const RunSpec& spec) {
    if (spec.seed == 2) throw std::runtime_error("injected fault");
    return fake_result(spec.seed);
  };
  util::ThreadPool pool{2};
  const auto outcome = supervise_runs(topo(), specs, pool, config);

  ASSERT_EQ(outcome.runs.size(), 3u);
  EXPECT_EQ(outcome.runs[0].state, RunState::kOk);
  EXPECT_EQ(outcome.runs[1].state, RunState::kFailed);
  EXPECT_EQ(outcome.runs[1].error, "injected fault");
  EXPECT_FALSE(outcome.runs[1].result.has_value());
  EXPECT_EQ(outcome.runs[2].state, RunState::kOk);
  EXPECT_EQ(outcome.runs[2].result->counters.chunks_delivered, 3u);
  EXPECT_EQ(outcome.succeeded(), 2u);
  EXPECT_EQ(outcome.failed(), 1u);
  EXPECT_FALSE(outcome.complete());
}

TEST_F(SupervisorTest, RetriesUntilSuccess) {
  const RunSpec specs[] = {tiny_spec(7)};
  std::atomic<int> calls{0};
  SupervisorConfig config;
  config.retries = 3;
  config.backoff_base = std::chrono::milliseconds{1};
  config.run_fn = [&calls](const net::AsTopology&, const RunSpec& spec) {
    if (++calls < 3) throw std::runtime_error("transient");
    return fake_result(spec.seed);
  };

  obs::MetricsRegistry registry;
  obs::install(&registry);
  util::ThreadPool pool{1};
  const auto outcome = supervise_runs(topo(), specs, pool, config);
  obs::install(nullptr);

  EXPECT_EQ(outcome.runs[0].state, RunState::kOk);
  EXPECT_EQ(outcome.runs[0].attempts, 3);
  EXPECT_TRUE(outcome.runs[0].error.empty());
  const auto counters = registry.snapshot().counters;
  EXPECT_EQ(counters.at("exp.run_retries"), 2u);
  EXPECT_EQ(counters.at("exp.runs_ok"), 1u);
  EXPECT_EQ(counters.count("exp.runs_failed"), 0u);
}

TEST_F(SupervisorTest, PermanentFailureExhaustsRetries) {
  const RunSpec specs[] = {tiny_spec(9)};
  SupervisorConfig config;
  config.retries = 2;
  config.backoff_base = std::chrono::milliseconds{1};
  config.run_fn = [](const net::AsTopology&,
                     const RunSpec&) -> RunResult {
    throw std::runtime_error("permanent");
  };

  obs::MetricsRegistry registry;
  obs::install(&registry);
  util::ThreadPool pool{1};
  const auto outcome = supervise_runs(topo(), specs, pool, config);
  obs::install(nullptr);

  EXPECT_EQ(outcome.runs[0].state, RunState::kFailed);
  EXPECT_EQ(outcome.runs[0].attempts, 3);
  EXPECT_EQ(outcome.runs[0].error, "permanent");
  EXPECT_EQ(outcome.succeeded(), 0u);
  const auto counters = registry.snapshot().counters;
  EXPECT_EQ(counters.at("exp.runs_failed"), 1u);
  EXPECT_EQ(counters.at("exp.run_retries"), 2u);
}

// --- cancellation poll cadence ---------------------------------------

TEST(CancelPollStride, CancellationLatencyStaysBounded) {
  // An unbounded self-rescheduling event chain trips the token from
  // inside a callback; the engine must notice at the next poll
  // boundary — within sim::Engine::kCancelStride executed events — no
  // matter how much work remains scheduled.
  sim::Engine engine;
  util::CancelToken token;
  engine.set_cancel(&token);
  constexpr std::uint64_t kTripAfter = 100;
  std::function<void()> tick = [&] {
    if (engine.executed() == kTripAfter) token.request();
    engine.schedule_after(SimTime::nanos(10), tick);
  };
  engine.schedule_after(SimTime::nanos(10), tick);
  EXPECT_THROW(engine.run_until(SimTime::seconds(1)), util::Cancelled);
  EXPECT_GE(engine.executed(), kTripAfter);
  EXPECT_LE(engine.executed(), kTripAfter + sim::Engine::kCancelStride);
}

TEST(BackoffDelay, InjectedConstantJitterMakesDelaysExact) {
  // With a pinned multiplier the ladder is pure arithmetic: base *
  // 2^(attempt-1), capped at the 2^16 scale.
  const auto unit = [](std::uint64_t, int) { return 1.0; };
  using std::chrono::milliseconds;
  EXPECT_EQ(backoff_delay(milliseconds{200}, 42, 1, unit), milliseconds{200});
  EXPECT_EQ(backoff_delay(milliseconds{200}, 42, 2, unit), milliseconds{400});
  EXPECT_EQ(backoff_delay(milliseconds{200}, 42, 3, unit), milliseconds{800});
  EXPECT_EQ(backoff_delay(milliseconds{200}, 42, 17, unit),
            milliseconds{200LL << 16});
  // Scale saturates: attempt 18 sleeps no longer than attempt 17.
  EXPECT_EQ(backoff_delay(milliseconds{200}, 42, 18, unit),
            backoff_delay(milliseconds{200}, 42, 17, unit));
  // The injected multiplier scales linearly.
  const auto half = [](std::uint64_t, int) { return 0.5; };
  EXPECT_EQ(backoff_delay(milliseconds{200}, 42, 3, half), milliseconds{400});
}

TEST(BackoffDelay, DefaultJitterIsDeterministicAndBounded) {
  using std::chrono::milliseconds;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const auto first = backoff_delay(milliseconds{200}, 77, attempt);
    const auto second = backoff_delay(milliseconds{200}, 77, attempt);
    EXPECT_EQ(first, second) << "attempt " << attempt;  // rerun-identical
    const auto ladder = 200LL << (attempt - 1);
    EXPECT_GE(first.count(), static_cast<std::int64_t>(0.75 * ladder));
    EXPECT_LE(first.count(), static_cast<std::int64_t>(1.25 * ladder));
  }
  // Different specs spread out instead of retrying in lockstep.
  EXPECT_NE(backoff_delay(milliseconds{200}, 77, 3),
            backoff_delay(milliseconds{200}, 78, 3));
}

TEST_F(SupervisorTest, BackoffJitterHookObservesEveryRetry) {
  const RunSpec specs[] = {tiny_spec(11)};
  std::atomic<int> calls{0};
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, int>> seen;
  SupervisorConfig config;
  config.retries = 3;
  config.backoff_base = std::chrono::milliseconds{1};
  config.backoff_jitter = [&](std::uint64_t seed, int attempt) {
    const std::scoped_lock lock{mu};
    seen.emplace_back(seed, attempt);
    return 0.0;  // no sleep: deterministic-retry tests stay fast
  };
  config.run_fn = [&calls](const net::AsTopology&, const RunSpec& spec) {
    if (++calls < 3) throw std::runtime_error("transient");
    return fake_result(spec.seed);
  };

  util::ThreadPool pool{1};
  const auto outcome = supervise_runs(topo(), specs, pool, config);
  EXPECT_EQ(outcome.runs[0].state, RunState::kOk);
  EXPECT_EQ(outcome.runs[0].attempts, 3);
  // Two failed attempts -> two backoffs, attempts numbered from 1,
  // keyed by the spec's seed.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<std::uint64_t, int>{11u, 1}));
  EXPECT_EQ(seen[1], (std::pair<std::uint64_t, int>{11u, 2}));
}

TEST_F(SupervisorTest, DeadlineCutsOffRealRunWithoutRetry) {
  // A real simulation against a deadline far shorter than its runtime:
  // the engine's cancellation poll must unwind it, and a timeout must
  // NOT burn the retry budget (same spec, same deadline, same result).
  const RunSpec specs[] = {deadline_spec(1)};
  SupervisorConfig config;
  config.retries = 2;
  config.deadline_s = 0.02;

  obs::MetricsRegistry registry;
  obs::install(&registry);
  util::ThreadPool pool{1};
  const auto outcome = supervise_runs(topo(), specs, pool, config);
  obs::install(nullptr);

  EXPECT_EQ(outcome.runs[0].state, RunState::kTimedOut);
  EXPECT_EQ(outcome.runs[0].attempts, 1);
  EXPECT_NE(outcome.runs[0].error.find("cancelled"), std::string::npos);
  EXPECT_EQ(registry.snapshot().counters.at("exp.runs_timed_out"), 1u);
}

TEST_F(SupervisorTest, JournalRecordsTerminalStates) {
  const RunSpec specs[] = {tiny_spec(1), tiny_spec(2)};
  SupervisorConfig config;
  config.journal = dir_ / "experiment.journal";
  config.run_fn = [](const net::AsTopology&, const RunSpec& spec) {
    if (spec.seed == 2) throw std::runtime_error("boom");
    return fake_result(spec.seed);
  };
  util::ThreadPool pool{2};
  (void)supervise_runs(topo(), specs, pool, config);

  const auto entries = journal_replay(config.journal);
  ASSERT_EQ(entries.size(), 2u);
  const auto& ok = entries.at(spec_id(specs[0]));
  EXPECT_EQ(ok.state, "ok");
  EXPECT_FALSE(ok.artifact.empty());
  EXPECT_TRUE(
      std::filesystem::exists(dir_ / "experiment.journal.d" / ok.artifact));
  const auto& failed = entries.at(spec_id(specs[1]));
  EXPECT_EQ(failed.state, "failed");
  EXPECT_EQ(failed.error, "boom");
  EXPECT_TRUE(failed.artifact.empty());
}

TEST_F(SupervisorTest, FlightRecorderDumpsOnlyTheFailedRunsFinalAttempt) {
  const RunSpec specs[] = {tiny_spec(1), tiny_spec(2)};
  SupervisorConfig config;
  config.journal = dir_ / "experiment.journal";
  config.retries = 1;
  config.backoff_base = std::chrono::milliseconds{1};
  config.run_fn = [](const net::AsTopology&, const RunSpec& spec) {
    if (spec.seed == 2) throw std::runtime_error("always fails");
    return fake_result(spec.seed);
  };

  obs::TraceRecorder recorder;
  obs::install_tracer(&recorder);
  util::ThreadPool pool{2};
  (void)supervise_runs(topo(), specs, pool, config);
  obs::install_tracer(nullptr);

  // The failed spec left its ring tail in journal.d…
  const auto flight =
      dir_ / "experiment.journal.d" / spec_flight_name(spec_id(specs[1]));
  ASSERT_TRUE(std::filesystem::exists(flight));
  const obs::TraceFile dump = obs::read_trace_file(flight);
  // …holding exactly the final attempt: the retry flushed attempt 1
  // out of the ring, so only attempt 2's marker and the failure
  // instant remain.
  ASSERT_EQ(dump.events.size(), 2u);
  EXPECT_EQ(dump.events[0].name, "exp.run_attempt");
  EXPECT_EQ(dump.events[1].name, "exp.run_failed");

  // The successful spec gets no flight dump.
  EXPECT_FALSE(std::filesystem::exists(
      dir_ / "experiment.journal.d" / spec_flight_name(spec_id(specs[0]))));
}

TEST_F(SupervisorTest, FlightRecorderCoversTimeoutsOfRealRuns) {
  // A real simulation cancelled by its deadline: the dump must exist
  // and record the timeout marker (plus whatever span/counter tail the
  // engine left in the ring).
  const RunSpec specs[] = {deadline_spec(1)};
  SupervisorConfig config;
  config.journal = dir_ / "experiment.journal";
  config.deadline_s = 0.02;

  obs::TraceRecorder recorder;
  obs::install_tracer(&recorder);
  util::ThreadPool pool{1};
  const auto outcome = supervise_runs(topo(), specs, pool, config);
  obs::install_tracer(nullptr);

  ASSERT_EQ(outcome.runs[0].state, RunState::kTimedOut);
  const auto flight =
      dir_ / "experiment.journal.d" / spec_flight_name(spec_id(specs[0]));
  ASSERT_TRUE(std::filesystem::exists(flight));
  const obs::TraceFile dump = obs::read_trace_file(flight);
  EXPECT_EQ(dump.skipped_lines, 0u);
  bool saw_timeout = false;
  for (const auto& event : dump.events) {
    if (event.name == "exp.run_timed_out") saw_timeout = true;
  }
  EXPECT_TRUE(saw_timeout);
}

TEST_F(SupervisorTest, NoFlightDumpWithoutATracerOrWithoutAJournal) {
  const RunSpec specs[] = {tiny_spec(2)};
  SupervisorConfig config;
  config.journal = dir_ / "experiment.journal";
  config.run_fn = [](const net::AsTopology&, const RunSpec&) -> RunResult {
    throw std::runtime_error("fails without tracer");
  };
  util::ThreadPool pool{1};
  (void)supervise_runs(topo(), specs, pool, config);
  EXPECT_FALSE(std::filesystem::exists(
      dir_ / "experiment.journal.d" / spec_flight_name(spec_id(specs[0]))));
}

TEST_F(SupervisorTest, ResumeSkipsFinishedSpecsWithIdenticalResults) {
  const RunSpec specs[] = {tiny_spec(1), tiny_spec(2)};
  SupervisorConfig config;
  config.journal = dir_ / "experiment.journal";
  std::atomic<int> calls{0};
  config.run_fn = [&calls](const net::AsTopology&, const RunSpec& spec) {
    ++calls;
    return fake_result(spec.seed * 100);
  };
  util::ThreadPool pool{2};
  const auto first = supervise_runs(topo(), specs, pool, config);
  ASSERT_TRUE(first.complete());
  EXPECT_EQ(calls.load(), 2);

  config.resume = true;
  const auto second = supervise_runs(topo(), specs, pool, config);
  EXPECT_EQ(calls.load(), 2);  // nothing re-executed
  ASSERT_TRUE(second.complete());
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(second.runs[i].state, RunState::kSkipped);
    EXPECT_EQ(second.runs[i].attempts, 0);
    ASSERT_TRUE(second.runs[i].result.has_value());
    EXPECT_EQ(second.runs[i].result->counters.chunks_delivered,
              first.runs[i].result->counters.chunks_delivered);
  }
}

TEST_F(SupervisorTest, ResumeRerunsFailedAndMissingBlobEntries) {
  const RunSpec specs[] = {tiny_spec(1), tiny_spec(2)};
  SupervisorConfig config;
  config.journal = dir_ / "experiment.journal";
  config.run_fn = [](const net::AsTopology&, const RunSpec& spec) {
    if (spec.seed == 2) throw std::runtime_error("first pass fails");
    return fake_result(spec.seed);
  };
  util::ThreadPool pool{2};
  (void)supervise_runs(topo(), specs, pool, config);

  // Sabotage spec 1's blob: an "ok" journal line whose artifact is
  // gone must be treated as unfinished, not trusted blindly.
  const auto entries = journal_replay(config.journal);
  std::filesystem::remove(dir_ / "experiment.journal.d" /
                          entries.at(spec_id(specs[0])).artifact);

  std::atomic<int> calls{0};
  config.resume = true;
  config.run_fn = [&calls](const net::AsTopology&, const RunSpec& spec) {
    ++calls;
    return fake_result(spec.seed);
  };
  const auto second = supervise_runs(topo(), specs, pool, config);
  EXPECT_EQ(calls.load(), 2);  // both re-executed
  EXPECT_EQ(second.runs[0].state, RunState::kOk);
  EXPECT_EQ(second.runs[1].state, RunState::kOk);
  EXPECT_TRUE(second.complete());
}

TEST_F(SupervisorTest, TornTrailingJournalLineIsIgnoredOnResume) {
  const RunSpec specs[] = {tiny_spec(1)};
  SupervisorConfig config;
  config.journal = dir_ / "experiment.journal";
  config.run_fn = [](const net::AsTopology&, const RunSpec& spec) {
    return fake_result(spec.seed);
  };
  util::ThreadPool pool{1};
  (void)supervise_runs(topo(), specs, pool, config);

  {  // simulate a crash mid-append: no trailing newline, no brace
    // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
    std::ofstream out(config.journal, std::ios::app);
    out << "{\"spec\":\"torn#seed";
  }

  std::atomic<int> calls{0};
  config.resume = true;
  config.run_fn = [&calls](const net::AsTopology&, const RunSpec& spec) {
    ++calls;
    return fake_result(spec.seed);
  };
  const auto second = supervise_runs(topo(), specs, pool, config);
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(second.runs[0].state, RunState::kSkipped);
}

TEST_F(SupervisorTest, TornFlightDumpInBlobDirDoesNotBreakResume) {
  // A SIGKILL can leave a half-copied trace.json in journal.d (the
  // atomic writer itself never tears, but crashed tooling copying one
  // can). Resume only consults the journal and .result blobs, so junk
  // trace artifacts must be ignored, never fatal.
  const RunSpec specs[] = {tiny_spec(1)};
  SupervisorConfig config;
  config.journal = dir_ / "experiment.journal";
  config.run_fn = [](const net::AsTopology&, const RunSpec& spec) {
    return fake_result(spec.seed);
  };
  util::ThreadPool pool{1};
  (void)supervise_runs(topo(), specs, pool, config);

  {  // torn mid-event trace for the finished spec, plus stray junk
    // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
    std::ofstream torn(dir_ / "experiment.journal.d" /
                       spec_flight_name(spec_id(specs[0])));
    torn << "{\"schema\": \"peerscope.trace/1\",\n\"traceEvents\": [\n"
         << "{\"name\": \"run.TVA";
    // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
    std::ofstream junk(dir_ / "experiment.journal.d" / "junk.trace.json");
    junk << std::string{"\x01\x00\x7f not json at all", 19};
  }

  std::atomic<int> calls{0};
  config.resume = true;
  config.run_fn = [&calls](const net::AsTopology&, const RunSpec& spec) {
    ++calls;
    return fake_result(spec.seed);
  };
  const auto second = supervise_runs(topo(), specs, pool, config);
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(second.runs[0].state, RunState::kSkipped);
  ASSERT_TRUE(second.runs[0].result.has_value());
}

TEST(Journal, SpecFlightNameSharesTheArtifactStem) {
  const std::string id = spec_id(tiny_spec(4));
  const std::string artifact = spec_artifact_name(id);
  const std::string flight = spec_flight_name(id);
  ASSERT_NE(artifact.rfind(".result"), std::string::npos);
  ASSERT_NE(flight.rfind(".trace.json"), std::string::npos);
  EXPECT_EQ(artifact.substr(0, artifact.size() - 7),
            flight.substr(0, flight.size() - 11));
}

TEST_F(SupervisorTest, JournalKeepsItsBytesAndReplaysEveryField) {
  const auto path = dir_ / "experiment.journal";
  const JournalEntry entries[] = {
      {"PPLive#seed=42#dur=300000000000", "ok", 1, "",
       "PPLive_seed_42-0123abcd.result"},
      {"TVAnts#seed=1", "failed", 3,
       "bad \"quote\" and back\\slash\nsecond line", ""},
      {"x\x01y", "timed_out", 2, "deadline", ""},
  };
  journal_begin(path);
  for (const JournalEntry& entry : entries) journal_append(path, entry);

  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(),
            "{\"schema\":\"peerscope.journal/1\"}\n"
            "{\"spec\":\"PPLive#seed=42#dur=300000000000\",\"state\":\"ok\","
            "\"attempts\":1,\"artifact\":\"PPLive_seed_42-0123abcd.result\"}\n"
            "{\"spec\":\"TVAnts#seed=1\",\"state\":\"failed\",\"attempts\":3,"
            "\"error\":\"bad \\\"quote\\\" and back\\\\slash\\nsecond "
            "line\"}\n"
            "{\"spec\":\"x\\u0001y\",\"state\":\"timed_out\",\"attempts\":2,"
            "\"error\":\"deadline\"}\n");

  const auto replayed = journal_replay(path);
  ASSERT_EQ(replayed.size(), std::size(entries));
  for (const JournalEntry& entry : entries) {
    const JournalEntry& back = replayed.at(entry.spec);
    EXPECT_EQ(back.state, entry.state);
    EXPECT_EQ(back.attempts, entry.attempts);
    EXPECT_EQ(back.error, entry.error);
    EXPECT_EQ(back.artifact, entry.artifact);
  }
}

TEST_F(SupervisorTest, ReplayRejectsForeignFile) {
  const auto path = dir_ / "not_a_journal";
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::ofstream(path) << "{\"schema\":\"someone.elses/9\"}\n";
  EXPECT_THROW((void)journal_replay(path), std::runtime_error);
}

TEST_F(SupervisorTest, ReplayOfMissingJournalIsEmpty) {
  EXPECT_TRUE(journal_replay(dir_ / "absent.journal").empty());
}

TEST(Journal, SpecIdEncodesIdentityAndFaults) {
  RunSpec a = tiny_spec(3);
  const std::string base = spec_id(a);
  EXPECT_NE(base.find("TVAnts"), std::string::npos);
  EXPECT_NE(base.find("seed=3"), std::string::npos);

  RunSpec b = a;
  b.impairment.loss_rate = 0.05;
  EXPECT_NE(spec_id(b), base);
  RunSpec c = a;
  c.keep_records = true;
  EXPECT_NE(spec_id(c), base);
  EXPECT_EQ(spec_id(a), base);  // stable

  const std::string artifact = spec_artifact_name(spec_id(b));
  for (const char ch : artifact) {
    EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
                ch == '-' || ch == '.')
        << "unsafe char in artifact name: " << artifact;
  }
}

/// Every observation field the blob carries, listed independently of
/// the writer.
auto observation_fields(const aware::PairObservation& o) {
  return std::tie(o.probe, o.remote, o.probe_as, o.remote_as, o.probe_cc,
                  o.remote_cc, o.same_subnet, o.remote_is_napa, o.rx_pkts,
                  o.rx_bytes, o.tx_pkts, o.tx_bytes, o.rx_video_pkts,
                  o.rx_video_bytes, o.tx_video_pkts, o.tx_video_bytes,
                  o.min_rx_video_ipg_ns, o.smallest_rx_ipgs, o.rx_ipg_samples,
                  o.rx_hops);
}

/// Every counter the blob carries, listed independently of the writer.
template <typename Counters>
auto counter_fields(Counters& c) {
  auto& d = c.discovery;
  return std::vector{&c.chunks_delivered,  &c.chunks_duplicate,
                     &c.chunks_uploaded,   &c.requests_refused,
                     &c.contacts,          &c.timeouts,
                     &c.contact_failures,  &c.probe_crashes,
                     &c.chunks_retried,    &c.partners_blacklisted,
                     &d.tracker_queries,   &d.tracker_failures,
                     &d.dht_lookups,       &d.dht_hops,
                     &d.dht_hop_timeouts,  &d.dht_evictions,
                     &d.gossip_exchanges,  &d.gossip_partitions,
                     &d.failovers,         &d.recoveries,
                     &d.joins_ok,          &d.join_retries,
                     &d.nat_direct,        &d.nat_relayed,
                     &d.nat_blocked,       &d.flash_arrivals};
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_fixture(const std::filesystem::path& path,
                   const std::string& bytes) {
  // peerscope-lint: allow(no-raw-artifact-io): writes a test fixture
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(Journal, RunResultBlobRoundTripsByteIdentically) {
  // Real simulation output through the blob: the reloaded result must
  // serialize to the exact same bytes, which is the property --resume
  // byte-identity rests on.
  RunSpec discovery = tiny_spec(7);
  discovery.discovery.primary = p2p::DiscoveryBackendKind::kTracker;
  discovery.discovery.fallback = p2p::DiscoveryBackendKind::kDht;
  discovery.discovery.tracker_outage_start = SimTime::seconds(8);
  discovery.discovery.tracker_outage_duration = SimTime::seconds(10);
  discovery.discovery.nat.enabled = true;
  const test::ScratchDir dir{"peerscope_blob_test"};

  for (const RunSpec& spec : {tiny_spec(5), discovery}) {
    const RunResult original = run_experiment(topo(), spec);
    EXPECT_EQ(original.counters.discovery.any(), spec.discovery.enabled());
    write_run_result(dir / "a.result", original);
    const auto reloaded = read_run_result(dir / "a.result");
    ASSERT_TRUE(reloaded.has_value()) << spec_id(spec);
    write_run_result(dir / "b.result", *reloaded);

    const std::string first = slurp(dir / "a.result");
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, slurp(dir / "b.result")) << spec_id(spec);
    EXPECT_EQ(reloaded->observations.probes.size(),
              original.observations.probes.size());
    ASSERT_EQ(reloaded->observations.per_probe.size(),
              original.observations.per_probe.size());
    for (std::size_t v = 0; v < original.observations.per_probe.size(); ++v) {
      const auto& want = original.observations.per_probe[v];
      const auto& have = reloaded->observations.per_probe[v];
      ASSERT_EQ(have.size(), want.size()) << "vantage " << v;
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_TRUE(observation_fields(have[k]) == observation_fields(want[k]))
            << "vantage " << v << " observation " << k;
      }
    }
    const auto want = counter_fields(original.counters);
    const auto have = counter_fields(reloaded->counters);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(*have[i], *want[i]) << "counter " << i << " of "
                                    << spec_id(spec);
    }
  }

  // A real run leaves counters at zero; distinct values show that each
  // of the 26 has its own slot in the blob.
  RunResult marked = fake_result(1);
  const auto fields = counter_fields(marked.counters);
  for (std::size_t i = 0; i < fields.size(); ++i) *fields[i] = 1000 + i;
  write_run_result(dir / "marked.result", marked);
  auto reloaded = read_run_result(dir / "marked.result");
  ASSERT_TRUE(reloaded.has_value());
  const auto back = counter_fields(reloaded->counters);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(*back[i], 1000 + i) << "counter " << i;
  }
}

TEST(Journal, CorruptBlobReadsAsNullopt) {
  const test::ScratchDir dir{"peerscope_blob_corrupt"};
  EXPECT_FALSE(read_run_result(dir / "missing.result").has_value());

  // Truncated: a real blob that lost its last byte.
  write_run_result(dir / "torn.result", fake_result(7));
  std::string torn = slurp(dir / "torn.result");
  ASSERT_TRUE(read_run_result(dir / "torn.result").has_value());
  torn.pop_back();
  write_fixture(dir / "torn.result", torn);
  EXPECT_FALSE(read_run_result(dir / "torn.result").has_value());

  // The text blob this format replaced, CRC line and all: what
  // fake_result(7) used to persist. It reads as unfinished.
  write_fixture(dir / "old.result",
                "peerscope-runresult 1\n"
                "app FakeApp\n"
                "duration_ns 1000000000\n"
                "counters 7 0 0 0 0 0 0 0 0 0\n"
                "crc a739e342\n"
                "end\n");
  EXPECT_FALSE(read_run_result(dir / "old.result").has_value());

  // CRC-valid but out of domain: a run frame declaring 2^40 probes in
  // a one-frame stream. It must be rejected, never allocated for.
  std::string stream;
  util::framing::FrameEncoder encoder{
      {.magic = kRunResultMagic, .version = kRunResultVersion}, stream, 1};
  std::string frame;
  util::framing::put<std::int64_t>(frame, 1'000'000'000);
  for (int i = 0; i < 26; ++i) util::framing::put<std::uint64_t>(frame, 0);
  util::framing::put<std::uint64_t>(frame, std::uint64_t{1} << 40);
  frame += "FakeApp";
  encoder.append(frame);
  write_fixture(dir / "domain.result", stream);
  EXPECT_FALSE(read_run_result(dir / "domain.result").has_value());
}

TEST(Journal, BitRotInTheBlobFailsTheCrcCheck) {
  // One random flip anywhere in a real blob — header, frame length,
  // checksum or payload — must read as unfinished, never as data.
  const RunResult original = run_experiment(topo(), tiny_spec(6));
  const test::ScratchDir dir{"peerscope_blob_crc"};
  const auto path = dir / "rot.result";
  write_run_result(path, original);
  const std::string clean = slurp(path);
  ASSERT_TRUE(read_run_result(path).has_value());

  std::uint64_t lcg = 0x243f6a8885a308d3ull;  // fixed: runs reproduce
  for (int trial = 0; trial < 200; ++trial) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t bit = (lcg >> 11) % (clean.size() * 8);
    std::string buf = clean;
    buf[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    write_fixture(path, buf);
    EXPECT_FALSE(read_run_result(path).has_value()) << "flip bit " << bit;
  }
}

TEST_F(SupervisorTest, TornResultBlobIsRerunOnResume) {
  // A blob cut mid-bytes (a crashed copy, a dying disk) must fail the
  // CRC, read as unfinished, and be re-executed — never half-trusted.
  const RunSpec specs[] = {tiny_spec(1), tiny_spec(2)};
  SupervisorConfig config;
  config.journal = dir_ / "experiment.journal";
  config.run_fn = [](const net::AsTopology&, const RunSpec& spec) {
    return fake_result(spec.seed);
  };
  util::ThreadPool pool{2};
  (void)supervise_runs(topo(), specs, pool, config);

  const auto entries = journal_replay(config.journal);
  const auto blob = dir_ / "experiment.journal.d" /
                    entries.at(spec_id(specs[0])).artifact;
  const auto size = std::filesystem::file_size(blob);
  ASSERT_GT(size, 10u);
  std::filesystem::resize_file(blob, size / 2);
  EXPECT_FALSE(read_run_result(blob).has_value());

  std::atomic<int> calls{0};
  config.resume = true;
  config.run_fn = [&calls](const net::AsTopology&, const RunSpec& spec) {
    ++calls;
    return fake_result(spec.seed);
  };
  const auto second = supervise_runs(topo(), specs, pool, config);
  EXPECT_EQ(calls.load(), 1);  // only the torn spec re-executed
  EXPECT_EQ(second.runs[0].state, RunState::kOk);
  EXPECT_EQ(second.runs[1].state, RunState::kSkipped);
  EXPECT_TRUE(second.complete());
}

}  // namespace
}  // namespace peerscope::exp
