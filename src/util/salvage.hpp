// Salvage-mode reading.
//
// The strict readers treat any corruption as fatal — right for
// regression tests, wrong for a measurement campaign where a probe
// host crashed mid-write or a disk flipped bits. Salvage mode recovers
// every record outside damaged regions, never throws on corrupt input,
// and accounts for everything it skipped so the analysis can report
// how much data survived. One report serves every salvaging reader:
// the framed PSBT traces and PSRR result blobs (util/framing.hpp) and
// pcap (trace/pcap.hpp).
#pragma once

#include <cstdint>
#include <string>

namespace peerscope::util {

struct SalvageReport {
  std::uint64_t records_recovered = 0;
  /// Records present in the byte stream but dropped: damaged regions,
  /// truncation, and records whose frame was intact but whose contents
  /// were out of domain (bad field values, foreign packets), each
  /// skipped alone.
  std::uint64_t records_skipped = 0;
  /// Bytes that could not be attributed to any record (truncated tail,
  /// trailing garbage, or the whole file when the header is bad).
  std::uint64_t bytes_discarded = 0;
  /// False when the file header itself was unusable; nothing can be
  /// recovered in that case.
  bool header_valid = false;
  /// True when the file ended mid-record or short of the declared
  /// record count.
  bool truncated = false;
  /// Human-readable description of the first problem found; empty for
  /// a clean file.
  std::string note;

  [[nodiscard]] bool clean() const {
    return header_valid && !truncated && records_skipped == 0 &&
           bytes_discarded == 0;
  }
};

}  // namespace peerscope::util
