// REPORT.md's partial-results path, which no complete reproduction
// renders: a run that produced no data dashes its rows and is named in
// the note, and a complete batch carries no note. The reports are
// built by hand, so no simulation runs.
#include "aware/render.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace peerscope::aware {
namespace {

/// A report whose every statistic reads `value`: five awareness rows,
/// two Figure 1 rows and the Figure 2 ratios.
AppReport filled_report(double value) {
  AppReport report;
  report.summary.rx_kbps_mean = report.summary.rx_kbps_max = value;
  report.summary.tx_kbps_mean = report.summary.tx_kbps_max = value;
  report.summary.all_peers_mean = value;
  report.bias = {value, value, value, value};
  for (const Metric metric : {Metric::kBw, Metric::kAs, Metric::kCc,
                              Metric::kNet, Metric::kHop}) {
    const AwarenessCell cell{value, value, value, value};
    report.awareness.push_back({metric, cell, cell});
  }
  report.geo = {{net::kChina, value, value, value},
                {net::CountryCode{}, value, value, value}};
  report.matrix.intra_inter_ratio = value;
  report.matrix.intra_inter_ratio_with_lan = value;
  return report;
}

Reproduction complete_batch() {
  Reproduction batch;
  batch.seconds = 300;
  batch.seed = 42;
  batch.apps = {filled_report(1), filled_report(2), filled_report(3)};
  batch.popular = filled_report(4).matrix;
  return batch;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in{text};
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// The measured row of Tables II-IV, under its paper row.
bool measured_row(std::string_view line) {
  return line.starts_with("| | ours |") || line.starts_with("| | | ours |");
}

/// A measured row whose every cell is a dash.
bool dashed(std::string_view line) {
  constexpr std::string_view kDashCell = " – |";
  line.remove_prefix(line.find("ours |") + std::string_view{"ours |"}.size());
  if (line.empty()) return false;
  while (line.starts_with(kDashCell)) line.remove_prefix(kDashCell.size());
  return line.empty();
}

TEST(RenderReproduction, MissingRunDashesItsRowsAndIsNamedInTheNote) {
  Reproduction batch = complete_batch();
  batch.apps[1].reset();
  batch.missing = {"SopCast failed (boom)"};
  const std::string text = render_reproduction(batch);

  EXPECT_NE(text.find("\n> **Partial results.** SopCast failed (boom); "
                      "affected rows are dashed below.\n"),
            std::string::npos);

  // Tables II-IV: the measured row under each SopCast paper row is all
  // dashes, and no other measured row has one.
  const std::vector<std::string> lines = lines_of(text);
  std::vector<std::string> dashed_rows;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (!measured_row(lines[i])) continue;
    const bool sopcast =
        lines[i - 1].find("| SopCast | paper |") != std::string::npos;
    EXPECT_EQ(dashed(lines[i]), sopcast) << lines[i];
    if (sopcast) dashed_rows.push_back(lines[i]);
  }
  const std::string ii = "| | ours | – | – | – | – | – | – |";
  const std::string iii = "| | ours | – | – | – | – |";
  const std::string iv = "| | | ours | – | – | – | – | – | – | – | – |";
  EXPECT_EQ(dashed_rows,
            (std::vector<std::string>{ii, iii, iv, iv, iv, iv, iv}));

  // Figures 1 and 2: one dashed SopCast row each; the others keep
  // their values.
  std::vector<std::string> figure_rows;
  for (const auto& line : lines) {
    if (line.starts_with("| SopCast |") &&
        !line.starts_with("| SopCast | paper |")) {
      figure_rows.push_back(line);
    }
  }
  EXPECT_EQ(figure_rows,
            (std::vector<std::string>{"| SopCast | – | – | – | – |",
                                      "| SopCast | 0.20 | – | – |"}));
  EXPECT_NE(text.find("| TVAnts | CN | 3.0 | 3.0 | 3.0 |\n"),
            std::string::npos);
  EXPECT_NE(text.find("| TVAnts | 1.93 | 3.00 | 3.00 |\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("| PPLive-Popular | (strongest locality) | 4.00 | 4.00 |\n"),
      std::string::npos);
}

TEST(RenderReproduction, MissingPopularDashesOnlyItsFigure2Row) {
  Reproduction batch = complete_batch();
  std::string expected = render_reproduction(batch);
  batch.popular.reset();
  batch.missing = {"PPLive-Popular timed_out"};

  // The complete report with the note added and that one row dashed.
  const std::string measured =
      "| PPLive-Popular | (strongest locality) | 4.00 | 4.00 |\n";
  const std::size_t at = expected.find(measured);
  ASSERT_NE(at, std::string::npos);
  expected.replace(at, measured.size(),
                   "| PPLive-Popular | (strongest locality) | – | – |\n");
  expected.insert(expected.find("\n## Table II"),
                  "\n> **Partial results.** PPLive-Popular timed_out; "
                  "affected rows are dashed below.\n");
  EXPECT_EQ(render_reproduction(batch), expected);
}

TEST(RenderReproduction, CompleteBatchHasNoNoteAndNoDashedRow) {
  const std::string text = render_reproduction(complete_batch());
  EXPECT_EQ(text.find("Partial results"), std::string::npos);
  for (const auto& line : lines_of(text)) {
    if (measured_row(line)) {
      EXPECT_EQ(line.find("–"), std::string::npos) << line;
    }
  }
  EXPECT_NE(text.find("| PPLive | 0.98 | 1.00 | 1.00 |\n"), std::string::npos);
}

}  // namespace
}  // namespace peerscope::aware
