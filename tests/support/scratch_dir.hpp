// A test's scratch directory: a fresh directory under the system temp
// directory, created by mkdtemp (so unique across processes, parallel
// ctest runs and repeated tests) and removed with everything in it on
// destruction. Every test that needs files on disk takes its directory
// from here; the test-scratch-dir lint rule rejects a temp path built
// by hand anywhere else under tests/.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace peerscope::test {

class ScratchDir {
 public:
  /// `tag` prefixes the directory name, so a directory left behind by
  /// a crashed test names its suite.
  explicit ScratchDir(std::string_view tag) {
    std::string name = (std::filesystem::temp_directory_path() /
                        (std::string{tag} + "_XXXXXX"))
                           .string();
    if (::mkdtemp(name.data()) == nullptr) {
      throw std::system_error{errno, std::generic_category(),
                              "mkdtemp " + name};
    }
    path_ = name;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  [[nodiscard]] std::filesystem::path operator/(
      const std::filesystem::path& name) const {
    return path_ / name;
  }

 private:
  std::filesystem::path path_;
};

}  // namespace peerscope::test
