// `peerscope reproduce`: one command that reruns every experiment and
// writes a self-contained markdown report with paper-vs-measured rows
// for all tables and figures — the repository's headline artifact,
// rendered by aware::render_reproduction (aware/render.hpp).
//
// Runs are supervised (exp/supervisor.hpp): a failing or timed-out
// application no longer aborts the whole reproduction — the report
// aggregates whatever succeeded, marks the missing rows, and the
// process exits with kExitPartialSuccess. Completed runs are journaled
// next to the output file so `--resume` after a crash skips them and
// still produces a byte-identical report.
//
// After a complete batch the same statistics go through the claims
// table (aware/claims.hpp): stderr gets one summary line, plus one line
// per claim whose verdict is not the expected one. Claims change
// neither the report nor the exit code.
#pragma once

#include <cstdint>
#include <filesystem>

namespace peerscope::tools {

/// Some applications produced results, at least one did not. Distinct
/// from 1 (nothing usable / runtime error) so CI and scripts can keep
/// a partial report while still flagging the gap.
inline constexpr int kExitPartialSuccess = 5;

struct ReproduceOptions {
  std::filesystem::path output = "REPORT.md";
  std::int64_t seconds = 300;
  std::uint64_t seed = 42;
  /// Extra attempts per failing run (exp::SupervisorConfig::retries).
  int retries = 0;
  /// Per-attempt wall-clock deadline in seconds; 0 disables.
  double deadline_s = 0.0;
  /// Replay the journal next to `output` and skip finished runs.
  bool resume = false;
};

/// Returns the process exit code: 0 all runs ok, kExitPartialSuccess
/// when only some applications produced results, 1 when none did.
int reproduce(const ReproduceOptions& options);

}  // namespace peerscope::tools
