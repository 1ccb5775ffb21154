// StatusReporter / parse_status: the live status.json written during
// a supervised batch and read back by `peerscope watch`.
#include "exp/status.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "exp/supervisor.hpp"
#include "support/scratch_dir.hpp"

namespace peerscope::exp {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;

class StatusTest : public ::testing::Test {
 protected:
  [[nodiscard]] std::string read_file(const fs::path& path) const {
    std::ifstream in{path, std::ios::binary};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  const test::ScratchDir dir_{"peerscope_status_test"};
};

TEST_F(StatusTest, ReporterDocumentRoundTripsThroughParseStatus) {
  const fs::path path = dir_ / "status.json";
  StatusReporter reporter{path, milliseconds{10}};
  LiveRun& alpha = reporter.add_run("PPLive#seed=7#dur=60000000000", 60.0);
  reporter.add_run("TVAnts#seed=1#dur=25000000000", 25.0);
  reporter.start();

  alpha.state.store(LiveRun::kRunning);
  alpha.attempts.store(1);
  alpha.progress.events.store(123'456);
  alpha.progress.sim_time_ns.store(5'500'000'000);
  // Give the rewrite thread at least one tick with live numbers.
  std::this_thread::sleep_for(milliseconds{40});
  alpha.state.store(static_cast<int>(RunState::kOk));
  reporter.stop();

  const auto view = parse_status(read_file(path));
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->phase, "done");
  ASSERT_EQ(view->runs.size(), 2u);
  EXPECT_EQ(view->runs[0].spec, "PPLive#seed=7#dur=60000000000");
  EXPECT_EQ(view->runs[0].state, to_string(RunState::kOk));
  EXPECT_EQ(view->runs[0].attempts, 1);
  EXPECT_EQ(view->runs[0].events, 123'456u);
  EXPECT_NEAR(view->runs[0].sim_time_s, 5.5, 1e-3);
  EXPECT_EQ(view->runs[1].state, "pending");
  EXPECT_EQ(view->runs[1].eta_s, -1);  // never ran: ETA unknown
}

TEST_F(StatusTest, StopIsIdempotentAndTheDestructorFinalises) {
  const fs::path path = dir_ / "status.json";
  {
    StatusReporter reporter{path, milliseconds{10}};
    reporter.add_run("run", 1.0);
    reporter.start();
    reporter.stop();
    reporter.stop();
  }  // destructor calls stop() again
  const auto view = parse_status(read_file(path));
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->phase, "done");
}

TEST_F(StatusTest, AddRunAfterStartThrows) {
  StatusReporter reporter{dir_ / "status.json", milliseconds{10}};
  reporter.add_run("early", 1.0);
  reporter.start();
  EXPECT_THROW((void)reporter.add_run("late", 1.0), std::logic_error);
  reporter.stop();
}

TEST_F(StatusTest, BrokenStatusPathDoesNotKillTheBatch) {
  // Status is advisory: pointing it at a directory that cannot exist
  // must only warn, never throw.
  StatusReporter reporter{dir_ / "no" / "such" / "dir" / "status.json",
                          milliseconds{10}};
  reporter.add_run("run", 1.0);
  EXPECT_NO_THROW(reporter.start());
  EXPECT_NO_THROW(reporter.stop());
}

TEST(ParseStatus, ReadsAHandcraftedDocument) {
  const std::string doc =
      "{\"schema\":\"peerscope.status/1\",\"phase\":\"running\","
      "\"runs\":[{\"spec\":\"A \\\"quoted\\\" run\",\"state\":\"running\","
      "\"attempts\":2,\"events\":42,\"sim_time_s\":1.500,"
      "\"events_per_s\":7.000,\"eta_s\":12.000}]}\n";
  const auto view = parse_status(doc);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->phase, "running");
  ASSERT_EQ(view->runs.size(), 1u);
  EXPECT_EQ(view->runs[0].spec, "A \"quoted\" run");
  EXPECT_EQ(view->runs[0].state, "running");
  EXPECT_EQ(view->runs[0].attempts, 2);
  EXPECT_EQ(view->runs[0].events, 42u);
  EXPECT_NEAR(view->runs[0].sim_time_s, 1.5, 1e-9);
  EXPECT_NEAR(view->runs[0].events_per_s, 7.0, 1e-9);
  EXPECT_NEAR(view->runs[0].eta_s, 12.0, 1e-9);
}

TEST(ParseStatus, RejectsGarbageAndForeignSchemas) {
  EXPECT_FALSE(parse_status("").has_value());
  EXPECT_FALSE(parse_status("not json at all").has_value());
  EXPECT_FALSE(
      parse_status("{\"schema\":\"peerscope.metrics/1\",\"phase\":\"done\"}")
          .has_value());
  // Schema present but a run entry is missing fields.
  EXPECT_FALSE(parse_status("{\"schema\":\"peerscope.status/1\","
                            "\"phase\":\"running\","
                            "\"runs\":[{\"spec\":\"x\"}]}")
                   .has_value());
}

TEST(ParseStatus, EmptyRunListIsValid) {
  const auto view = parse_status(
      "{\"schema\":\"peerscope.status/1\",\"phase\":\"done\",\"runs\":[]}\n");
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->phase, "done");
  EXPECT_TRUE(view->runs.empty());
}

}  // namespace
}  // namespace peerscope::exp
