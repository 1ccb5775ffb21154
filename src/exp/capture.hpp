// Capture directories: the stored form of one run, as the paper's
// black-box method keeps each probe's packet trace and computes the
// awareness statistics from the stored traces afterwards.
//
// write_capture is what `peerscope run` stores; load_capture is what
// `peerscope analyze DIR` reads back. The loader owns the
// directory-level validation so the CLI can map every
// malformed-capture condition to one clean diagnostic and a distinct
// exit code, and so the conditions are unit-testable without spawning
// the binary. Salvage mode additionally tolerates individual lost or
// corrupt traces: the affected probe contributes no observations and
// the analysis aggregates over what survived — matching the paper's
// own partially-lost campaign.
#pragma once

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "aware/experiment.hpp"
#include "exp/runner.hpp"

namespace peerscope::exp {

/// Where a run stores its capture, and which copies of each trace it
/// adds next to the PSBT file.
struct CaptureTarget {
  std::filesystem::path dir;
  bool pcap = false;  // <label>.pcap, for Wireshark
  bool csv = false;   // <label>.csv
};

/// Writes what load_capture reads: one `<label>.psct` per probe with
/// its records stably sorted by record_before, so tied records keep
/// capture order; the optional .pcap and .csv copies; then
/// `experiment.meta` last, so a directory holding experiment.meta is
/// always analyzable. Every file is written atomically. The swarm must
/// have run `spec` with keep_records; `target.dir` must exist.
void write_capture(const p2p::Swarm& swarm, const RunSpec& spec,
                   const CaptureTarget& target);

/// A capture directory that cannot be analyzed at all: missing or not
/// a directory, no/invalid experiment.meta, or (outside salvage mode)
/// an unreadable trace. The message is the user-facing diagnostic.
class CaptureError : public std::runtime_error {
 public:
  explicit CaptureError(const std::string& what)
      : std::runtime_error(what) {}
};

struct CaptureLoad {
  aware::ExperimentObservations data;
  /// Probes whose trace file was missing or unrecoverable (salvage
  /// mode only — outside it, these throw). They keep their slot in
  /// `data.per_probe` as an empty observation list so probe/vantage
  /// alignment is preserved.
  std::size_t probes_lost = 0;
  /// Salvage totals across all traces.
  std::size_t records_skipped = 0;
  /// One human-readable note per anomaly, for the CLI to print.
  std::vector<std::string> notes;
  [[nodiscard]] bool clean() const {
    return probes_lost == 0 && records_skipped == 0 && notes.empty();
  }
};

/// Loads a capture directory (experiment.meta + per-probe traces) and
/// joins it into analysis-ready observations. Throws CaptureError with
/// a one-line diagnostic when the directory cannot be analyzed; in
/// salvage mode, per-trace damage is recorded in the returned notes
/// instead of thrown.
[[nodiscard]] CaptureLoad load_capture(const std::filesystem::path& dir,
                                       bool salvage);

}  // namespace peerscope::exp
