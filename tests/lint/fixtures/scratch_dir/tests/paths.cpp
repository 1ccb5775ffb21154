#include <filesystem>

std::filesystem::path fixed_dir() {
  return std::filesystem::temp_directory_path() / "peerscope_fixed";
}

std::filesystem::path gtest_dir() {
  return std::filesystem::path{::testing::TempDir()} / "peerscope_gtest";
}

// peerscope-lint: allow(test-scratch-dir)
const auto tolerated = std::filesystem::temp_directory_path();
// a comment naming temp_directory_path() must not fire
const char* kDoc = "neither does testing::TempDir() in a string";
