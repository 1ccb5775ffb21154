// Fault-schedule grammar and hook semantics for the storage
// fault-injection shim (util/io_faults.hpp). The shim is process
// state, so every test installs its own plan and the fixture clears
// it again — an escaped plan would corrupt unrelated suites.
#include "util/io_faults.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "support/scratch_dir.hpp"

namespace peerscope::util::io {
namespace {

class IoFaultsTest : public ::testing::Test {
 protected:
  void TearDown() override { clear_faults(); }

  /// Writes `data` through the shim into a fresh file, retrying
  /// EINTR/short results the way every real caller does, and returns
  /// false on a hard error (leaving errno intact).
  bool shim_write(const std::filesystem::path& path,
                  const std::string& data) {
    const int fd =
        // peerscope-lint: allow(no-raw-artifact-io): exercising the shim on a raw fd
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return false;
    std::size_t done = 0;
    while (done < data.size()) {
      const ssize_t n = write_some(fd, data.data() + done,
                                   data.size() - done, done, path);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return false;
      }
      done += static_cast<std::size_t>(n);
    }
    ::close(fd);
    return true;
  }

  std::string slurp(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  const test::ScratchDir dir_{"peerscope_io_faults"};
};

// --- grammar ----------------------------------------------------------

TEST_F(IoFaultsTest, ParsesEveryKind) {
  const auto plan = FaultPlan::parse(
      "short-read,short-write,eintr,enospc,fsync-fail,rename-fail,"
      "bitflip");
  ASSERT_EQ(plan.faults.size(), 7u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::kShortRead);
  EXPECT_EQ(plan.faults[6].kind, FaultKind::kBitFlip);
}

TEST_F(IoFaultsTest, ParsesOffsetNthAndPathTags) {
  const auto plan = FaultPlan::parse("enospc@4096#3:journal.d/r7");
  ASSERT_EQ(plan.faults.size(), 1u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::kEnospc);
  ASSERT_TRUE(plan.faults[0].offset.has_value());
  EXPECT_EQ(*plan.faults[0].offset, 4096u);
  EXPECT_EQ(plan.faults[0].nth, 3u);
  EXPECT_EQ(plan.faults[0].path_substr, "journal.d/r7");
}

TEST_F(IoFaultsTest, PathSubstrConsumesTheRestOfTheClause) {
  // Paths may contain @ and # — the ':' tag must not re-tokenise.
  const auto plan = FaultPlan::parse("bitflip:odd@name#1");
  ASSERT_EQ(plan.faults.size(), 1u);
  EXPECT_EQ(plan.faults[0].path_substr, "odd@name#1");
  EXPECT_FALSE(plan.faults[0].offset.has_value());
}

TEST_F(IoFaultsTest, TrimsWhitespaceBetweenClauses) {
  const auto plan = FaultPlan::parse(" eintr@5 , short-write ");
  ASSERT_EQ(plan.faults.size(), 2u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::kEintr);
  EXPECT_EQ(plan.faults[1].kind, FaultKind::kShortWrite);
}

TEST_F(IoFaultsTest, RejectsMalformedSchedules) {
  EXPECT_THROW((void)FaultPlan::parse(""), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse(" , "), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("bogus"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("enospc@12x"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("enospc@"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("short-write#0"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("bitflip:"),
               std::invalid_argument);
}

// --- activation -------------------------------------------------------

TEST_F(IoFaultsTest, DisabledByDefaultAndAfterClear) {
  EXPECT_FALSE(faults_enabled());
  install_faults(FaultPlan::parse("short-write"));
  EXPECT_TRUE(faults_enabled());
  clear_faults();
  EXPECT_FALSE(faults_enabled());
  // Hooks revert to raw syscalls: a full write goes through.
  const auto path = dir_ / "clean.bin";
  EXPECT_TRUE(shim_write(path, "hello"));
  EXPECT_EQ(slurp(path), "hello");
}

// --- write-path faults ------------------------------------------------

TEST_F(IoFaultsTest, ShortWriteTruncatesOneCall) {
  install_faults(FaultPlan::parse("short-write@3"));
  const auto path = dir_ / "short.bin";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);  // peerscope-lint: allow(no-raw-artifact-io): exercising the shim on a raw fd
  ASSERT_GE(fd, 0);
  const ssize_t n = write_some(fd, "0123456789", 10, 0, path);
  EXPECT_EQ(n, 3);
  // The fault is spent; the retry completes.
  EXPECT_EQ(write_some(fd, "3456789", 7, 3, path), 7);
  ::close(fd);
  EXPECT_EQ(slurp(path), "0123456789");
  EXPECT_EQ(fault_counters().short_writes, 1u);
}

TEST_F(IoFaultsTest, EintrStormFailsTheConfiguredNumberOfCalls) {
  install_faults(FaultPlan::parse("eintr@3"));
  const auto path = dir_ / "eintr.bin";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);  // peerscope-lint: allow(no-raw-artifact-io): exercising the shim on a raw fd
  ASSERT_GE(fd, 0);
  for (int i = 0; i < 3; ++i) {
    errno = 0;
    EXPECT_EQ(write_some(fd, "x", 1, 0, path), -1);
    EXPECT_EQ(errno, EINTR);
  }
  EXPECT_EQ(write_some(fd, "x", 1, 0, path), 1);
  ::close(fd);
  EXPECT_EQ(fault_counters().eintr_retries, 3u);
}

TEST_F(IoFaultsTest, EnospcIsStickyPerPath) {
  install_faults(FaultPlan::parse("enospc@4:full.bin"));
  const auto path = dir_ / "full.bin";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);  // peerscope-lint: allow(no-raw-artifact-io): exercising the shim on a raw fd
  ASSERT_GE(fd, 0);
  // The write crossing byte 4 lands short...
  EXPECT_EQ(write_some(fd, "0123456789", 10, 0, path), 4);
  // ...and every retry at or past the limit fails forever.
  for (int i = 0; i < 3; ++i) {
    errno = 0;
    EXPECT_EQ(write_some(fd, "456789", 6, 4, path), -1);
    EXPECT_EQ(errno, ENOSPC);
  }
  ::close(fd);
  // A different path is unaffected.
  const auto other = dir_ / "elsewhere.bin";
  EXPECT_TRUE(shim_write(other, "unaffected"));
  EXPECT_EQ(slurp(other), "unaffected");
  EXPECT_GE(fault_counters().enospc_failures, 3u);
}

TEST_F(IoFaultsTest, BitflipFlipsExactlyTheAddressedBit) {
  // Bit 17 = byte 2, bit 1: 'c' (0x63) becomes 'a' (0x61).
  install_faults(FaultPlan::parse("bitflip@17"));
  const auto path = dir_ / "flip.bin";
  EXPECT_TRUE(shim_write(path, "abcdef"));
  EXPECT_EQ(slurp(path), "abadef");
  EXPECT_EQ(fault_counters().bitflips, 1u);
}

TEST_F(IoFaultsTest, BitflipWaitsForTheWriteCoveringItsByte) {
  install_faults(FaultPlan::parse("bitflip@64"));  // byte 8
  const auto path = dir_ / "later.bin";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);  // peerscope-lint: allow(no-raw-artifact-io): exercising the shim on a raw fd
  ASSERT_GE(fd, 0);
  EXPECT_EQ(write_some(fd, "01234567", 8, 0, path), 8);  // bytes 0-7
  EXPECT_EQ(fault_counters().bitflips, 0u);
  EXPECT_EQ(write_some(fd, "89ab", 4, 8, path), 4);  // covers byte 8
  ::close(fd);
  EXPECT_EQ(fault_counters().bitflips, 1u);
  EXPECT_EQ(slurp(path), "01234567" + std::string{char('8' ^ 1)} + "9ab");
}

TEST_F(IoFaultsTest, UnseededOffsetsAreDeterministicPerSeed) {
  auto corrupt_with_seed = [&](std::uint64_t seed) {
    install_faults(FaultPlan::parse("bitflip", seed));
    const auto path = dir_ / ("seed_" + std::to_string(seed) + ".bin");
    EXPECT_TRUE(shim_write(path, std::string(256, 'A')));
    return slurp(path);
  };
  const auto a = corrupt_with_seed(7);
  const auto b = corrupt_with_seed(7);
  EXPECT_EQ(a, b);  // same seed, same corruption site
  EXPECT_NE(a, std::string(256, 'A'));
}

TEST_F(IoFaultsTest, NthDelaysTheFault) {
  install_faults(FaultPlan::parse("short-write@1#2"));
  const auto path = dir_ / "nth.bin";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);  // peerscope-lint: allow(no-raw-artifact-io): exercising the shim on a raw fd
  ASSERT_GE(fd, 0);
  EXPECT_EQ(write_some(fd, "aa", 2, 0, path), 2);  // first call: clean
  EXPECT_EQ(write_some(fd, "bb", 2, 2, path), 1);  // second: short
  ::close(fd);
}

TEST_F(IoFaultsTest, PathFilterScopesTheFault) {
  install_faults(FaultPlan::parse("short-write:target.bin"));
  const auto other = dir_ / "other.bin";
  const int fd = ::open(other.c_str(), O_WRONLY | O_CREAT, 0644);  // peerscope-lint: allow(no-raw-artifact-io): exercising the shim on a raw fd
  ASSERT_GE(fd, 0);
  EXPECT_EQ(write_some(fd, "full", 4, 0, other), 4);
  ::close(fd);
  EXPECT_EQ(fault_counters().short_writes, 0u);
}

// --- fsync / rename ---------------------------------------------------

TEST_F(IoFaultsTest, FsyncFailReturnsEioOnce) {
  install_faults(FaultPlan::parse("fsync-fail"));
  const auto path = dir_ / "sync.bin";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);  // peerscope-lint: allow(no-raw-artifact-io): exercising the shim on a raw fd
  ASSERT_GE(fd, 0);
  errno = 0;
  EXPECT_EQ(fsync_file(fd, path), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(fsync_file(fd, path), 0);  // spent
  ::close(fd);
  EXPECT_EQ(fault_counters().fsync_failures, 1u);
}

TEST_F(IoFaultsTest, RenameFailMatchesOnTheDestination) {
  install_faults(FaultPlan::parse("rename-fail:dest.bin"));
  const auto src = dir_ / "src.bin";
  EXPECT_TRUE(shim_write(src, "payload"));
  errno = 0;
  EXPECT_EQ(rename_file(src, dir_ / "dest.bin"), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_TRUE(std::filesystem::exists(src));  // nothing moved
  // A rename to a non-matching destination goes through.
  EXPECT_EQ(rename_file(src, dir_ / "elsewhere.bin"), 0);
  EXPECT_EQ(fault_counters().rename_failures, 1u);
}

// --- read path --------------------------------------------------------

TEST_F(IoFaultsTest, ReadFileSlurpsAndReturnsNulloptOnMissing) {
  const auto path = dir_ / "data.bin";
  const std::string payload{"exact\0bytes\n", 12};
  EXPECT_TRUE(shim_write(path, payload));
  const auto got = read_file(path);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_FALSE(read_file(dir_ / "no_such_file").has_value());
}

TEST_F(IoFaultsTest, ShortReadTruncatesAtTheOffset) {
  const auto path = dir_ / "truncated.bin";
  EXPECT_TRUE(shim_write(path, "0123456789"));
  install_faults(FaultPlan::parse("short-read@4"));
  const auto got = read_file(path);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "0123");
  // Spent: the next read is whole.
  EXPECT_EQ(read_file(path)->size(), 10u);
  EXPECT_EQ(fault_counters().short_reads, 1u);
}

TEST_F(IoFaultsTest, ShortReadDefaultsToHalfTheFile) {
  const auto path = dir_ / "half.bin";
  EXPECT_TRUE(shim_write(path, "0123456789"));
  install_faults(FaultPlan::parse("short-read"));
  EXPECT_EQ(read_file(path)->size(), 5u);
}

TEST_F(IoFaultsTest, CountersAggregateAcrossFaults) {
  install_faults(FaultPlan::parse("short-write@1,fsync-fail"));
  const auto path = dir_ / "counted.bin";
  EXPECT_TRUE(shim_write(path, "abcdef"));
  const int fd = ::open(path.c_str(), O_RDONLY);  // peerscope-lint: allow(no-raw-artifact-io): exercising the shim on a raw fd
  ASSERT_GE(fd, 0);
  EXPECT_EQ(fsync_file(fd, path), -1);
  ::close(fd);
  const auto counters = fault_counters();
  EXPECT_EQ(counters.injected, 2u);
  EXPECT_EQ(counters.short_writes, 1u);
  EXPECT_EQ(counters.fsync_failures, 1u);
}

}  // namespace
}  // namespace peerscope::util::io
