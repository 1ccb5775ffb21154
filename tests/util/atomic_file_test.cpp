#include "util/atomic_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/scratch_dir.hpp"

namespace peerscope::util {
namespace {

class AtomicFileTest : public ::testing::Test {
 protected:
  std::string slurp(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  const test::ScratchDir dir_{"peerscope_atomic_test"};
};

TEST_F(AtomicFileTest, WritesExactBytes) {
  const auto path = dir_ / "out.bin";
  const std::string payload = std::string{"binary\0data\n"} +
                              std::string(3, '\xff');
  write_file_atomic(path, payload);
  EXPECT_EQ(slurp(path), payload);
}

TEST_F(AtomicFileTest, ReplacesExistingFileWholesale) {
  const auto path = dir_ / "out.txt";
  write_file_atomic(path, "a much longer first version of the file\n");
  write_file_atomic(path, "v2\n");
  EXPECT_EQ(slurp(path), "v2\n");
}

TEST_F(AtomicFileTest, LeavesNoTempFileBehind) {
  write_file_atomic(dir_ / "out.txt", "payload");
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_.path())) {
    ++entries;
    EXPECT_EQ(entry.path().filename(), "out.txt");
  }
  EXPECT_EQ(entries, 1u);
}

TEST_F(AtomicFileTest, MissingParentDirectoryThrows) {
  EXPECT_THROW(
      write_file_atomic(dir_ / "no_such_subdir" / "out.txt", "payload"),
      std::runtime_error);
}

TEST_F(AtomicFileTest, NonDurableModeStillWrites) {
  const auto path = dir_ / "scratch.txt";
  write_file_atomic(path, "scratch", /*durable=*/false);
  EXPECT_EQ(slurp(path), "scratch");
}

TEST_F(AtomicFileTest, AppendLineCreatesFileAndAppends) {
  const auto path = dir_ / "journal.log";
  append_line_durable(path, "first");
  append_line_durable(path, "second");
  EXPECT_EQ(slurp(path), "first\nsecond\n");
}

TEST_F(AtomicFileTest, AppendLinePreservesExistingContent) {
  const auto path = dir_ / "journal.log";
  write_file_atomic(path, "header\n");
  append_line_durable(path, "entry");
  EXPECT_EQ(slurp(path), "header\nentry\n");
}

}  // namespace
}  // namespace peerscope::util
