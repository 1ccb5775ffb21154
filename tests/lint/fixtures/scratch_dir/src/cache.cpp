#include <filesystem>

// Outside tests/ the rule does not apply.
std::filesystem::path cache_dir() {
  return std::filesystem::temp_directory_path() / "cache";
}
