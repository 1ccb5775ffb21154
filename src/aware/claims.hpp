// The paper's conclusions as one table of checks. Each claim is a
// predicate over the statistics `peerscope reproduce` renders: the
// AppReport of PPLive, SopCast and TVAnts plus the Figure 2 matrix of
// PPLive-Popular. The thresholds are the reproduction's shape criteria
// (EXPERIMENTS.md). Three rows encode known deviations 2, 3 and 4 of
// EXPERIMENTS.md: the reproduction is known to miss them, so they are
// expected to fail, and each carries the reason. The extension sweeps
// of exp/extensions.hpp report their checks as Claim rows too.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "aware/report.hpp"

namespace peerscope::aware {

struct Claim {
  /// `<table or figure>.<name>`, e.g. "table4.bw_strong", or
  /// `ext.<sweep>.<name>` for an extension claim.
  std::string_view id;
  std::string_view statement;
  /// The measured values the verdict rests on, as printed.
  std::string value;
  /// The verdict.
  bool holds = false;
  /// Why the reproduction is known to miss the claim; empty for a
  /// claim that is expected to hold.
  std::string_view deviation;

  /// A claim holds, or a known deviation still fails.
  [[nodiscard]] bool as_expected() const {
    return holds == deviation.empty();
  }
};

/// Every claim, in table order (Tables II-IV, then Figures 1-2).
[[nodiscard]] std::vector<Claim> evaluate_claims(
    const AppReport& pplive, const AppReport& sopcast,
    const AppReport& tvants, const AsMatrix& pplive_popular);

}  // namespace peerscope::aware
