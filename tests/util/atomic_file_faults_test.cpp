// write_file_atomic under injected storage faults (satellite of the
// fault-injection layer): whatever fails — disk full, fsync, rename —
// the temp file is cleaned up and the destination is never partial:
// it either keeps its previous contents or does not exist.
#include "util/atomic_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/scratch_dir.hpp"
#include "util/io_faults.hpp"

namespace peerscope::util {
namespace {

class AtomicFileFaultsTest : public ::testing::Test {
 protected:
  void TearDown() override { io::clear_faults(); }

  std::string slurp(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  /// The invariant every test asserts: no `.tmp.` litter in the
  /// directory, and the destination — if it exists — holds exactly
  /// `expected`.
  void expect_intact(const std::filesystem::path& dest,
                     const std::string* expected) {
    for (const auto& entry :
         std::filesystem::directory_iterator(dir_.path())) {
      EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                std::string::npos)
          << "leaked temp file: " << entry.path();
    }
    if (expected == nullptr) {
      EXPECT_FALSE(std::filesystem::exists(dest));
    } else {
      ASSERT_TRUE(std::filesystem::exists(dest));
      EXPECT_EQ(slurp(dest), *expected);
    }
  }

  const test::ScratchDir dir_{"peerscope_atomic_faults"};
};

TEST_F(AtomicFileFaultsTest, EnospcLeavesNoDestinationAndNoTemp) {
  io::install_faults(io::FaultPlan::parse("enospc@100:out.bin"));
  const auto dest = dir_ / "out.bin";
  EXPECT_THROW(write_file_atomic(dest, std::string(4096, 'x')),
               std::runtime_error);
  expect_intact(dest, nullptr);
}

TEST_F(AtomicFileFaultsTest, EnospcPreservesThePreviousVersion) {
  const auto dest = dir_ / "out.bin";
  const std::string v1 = "version one\n";
  write_file_atomic(dest, v1);
  io::install_faults(io::FaultPlan::parse("enospc@8:out.bin"));
  EXPECT_THROW(write_file_atomic(dest, std::string(4096, 'y')),
               std::runtime_error);
  expect_intact(dest, &v1);
}

TEST_F(AtomicFileFaultsTest, FsyncFailureAbortsBeforeRename) {
  const auto dest = dir_ / "out.bin";
  const std::string v1 = "survives\n";
  write_file_atomic(dest, v1);
  io::install_faults(io::FaultPlan::parse("fsync-fail:out.bin"));
  EXPECT_THROW(write_file_atomic(dest, "replacement"),
               std::runtime_error);
  expect_intact(dest, &v1);
}

TEST_F(AtomicFileFaultsTest, RenameFailureCleansTheTemp) {
  const auto dest = dir_ / "out.bin";
  io::install_faults(io::FaultPlan::parse("rename-fail:out.bin"));
  EXPECT_THROW(write_file_atomic(dest, "never lands"),
               std::runtime_error);
  expect_intact(dest, nullptr);
}

TEST_F(AtomicFileFaultsTest, TransientFaultsAreAbsorbedSilently) {
  // EINTR storms and one-shot short writes are retryable: the write
  // completes and the destination is byte-exact.
  io::install_faults(
      io::FaultPlan::parse("eintr@4:out.bin,short-write@7:out.bin"));
  const auto dest = dir_ / "out.bin";
  const std::string payload(513, 'z');
  write_file_atomic(dest, payload);
  expect_intact(dest, &payload);
  const auto counters = io::fault_counters();
  EXPECT_EQ(counters.eintr_retries, 4u);
  EXPECT_EQ(counters.short_writes, 1u);
}

TEST_F(AtomicFileFaultsTest, NonDurableSkipsFsyncEntirely) {
  // With durable=false the armed fsync fault never matches a call, so
  // the write must succeed and the fault stays unspent.
  io::install_faults(io::FaultPlan::parse("fsync-fail:out.bin"));
  const auto dest = dir_ / "out.bin";
  write_file_atomic(dest, "quick", /*durable=*/false);
  const std::string expected = "quick";
  expect_intact(dest, &expected);
  EXPECT_EQ(io::fault_counters().fsync_failures, 0u);
}

TEST_F(AtomicFileFaultsTest, AppendSurvivesTransientsAndKeepsPrefix) {
  const auto dest = dir_ / "journal.log";
  append_line_durable(dest, "first");
  io::install_faults(io::FaultPlan::parse("eintr@2:journal.log"));
  append_line_durable(dest, "second");
  const std::string expected = "first\nsecond\n";
  expect_intact(dest, &expected);
}

}  // namespace
}  // namespace peerscope::util
