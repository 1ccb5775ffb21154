// The two renderings of AppReport, the one place that turns the
// statistics of Tables II-IV and Figures 1-2 into text: REPORT.md, the
// whole reproduction `peerscope reproduce` writes, and the
// one-application printout of `peerscope report`, `analyze` and the
// quickstart. Both return the text and do no I/O.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "aware/report.hpp"

namespace peerscope::aware {

/// One reproduction batch, as REPORT.md shows it.
struct Reproduction {
  std::int64_t seconds = 0;
  std::uint64_t seed = 0;
  /// PPLive, SopCast and TVAnts, kPaperTable2's row order; nullopt for
  /// a run that produced no data, whose rows are dashed.
  std::array<std::optional<AppReport>, 3> apps;
  /// Figure 2's PPLive-Popular panel; nullopt dashes its row.
  std::optional<AsMatrix> popular;
  /// One `<spec> <state>[ (<error>)]` entry per run that produced no
  /// data; any entry adds the partial-results note.
  std::vector<std::string> missing;
};

/// REPORT.md: paper-vs-measured rows for Tables II-IV and Figures 1-2.
[[nodiscard]] std::string render_reproduction(const Reproduction& batch);

/// `app`'s overview, self-induced bias, network awareness and Figure 2
/// traffic matrix as plain-text tables.
[[nodiscard]] std::string render_app(std::string_view app,
                                     const AppReport& report);

}  // namespace peerscope::aware
