#pragma once
#include <filesystem>

// The one place under tests/ that may build a temp path.
inline std::filesystem::path scratch_root() {
  return std::filesystem::temp_directory_path();
}
