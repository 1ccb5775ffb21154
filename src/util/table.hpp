// Plain-text table rendering for the CLI's paper-style tables and the
// trace-summary profile, plus the number formatting that the report and
// the claims tables share, so "paper vs measured" rows line up and can
// be diffed by eye.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace peerscope::util {

enum class Align { kLeft, kRight };

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Adds a data row; short rows are padded with empty cells, long rows
  /// are an error.
  void add_row(std::vector<std::string> cells);

  /// Inserts a horizontal rule before the next added row.
  void add_rule();

  /// Per-column alignment; defaults to left for column 0, right
  /// otherwise.
  void set_align(std::size_t column, Align align);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::string render() const;

  /// Formats a double with fixed precision (helper for cells).
  [[nodiscard]] static std::string num(double v, int precision = 1);
  /// Integer with thousands separators (140'000'000-style counts).
  [[nodiscard]] static std::string count(std::uint64_t v);

 private:
  struct Row {
    std::vector<std::string> cells;
    bool rule_before = false;
  };
  std::vector<std::string> header_;
  std::vector<Row> rows_;
  std::vector<Align> align_;
  bool pending_rule_ = false;
};

}  // namespace peerscope::util
