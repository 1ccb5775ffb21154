// The experiment journal: a durable, append-only record of run
// completion, plus the result-blob serialization that makes resume
// byte-identical.
//
// Schema `peerscope.journal/1`: line 1 is a JSON header object, every
// later line is one JSON object describing the terminal state of one
// run attempt chain. Lines are appended with fsync
// (util::append_line_durable), so a line either survives a SIGKILL
// whole or not at all; the replay side ignores a torn trailing line.
// Completed runs additionally persist their full RunResult to a blob
// file (atomic rename, integer-exact fields), which is what lets
// `--resume` skip a finished spec and still produce output
// byte-identical to an uninterrupted batch (DESIGN.md §10).
//
// The blob is a util::framing stream (magic `PSRR`, version
// kRunResultVersion, no header extension, no sync markers), frames
// little-endian:
//
//   run frame:          i64 duration_ns · 10 swarm counters · 16
//                       discovery counters (u64 each, declaration
//                       order) · u64 probe_count · app name bytes
//   probe_count frames: u32 addr · u32 as · u16 cc · u8 high_bw ·
//                       label bytes
//   one 150-byte frame per PairObservation, vantage by vantage:
//                       u32 vantage index · the observation's fields
//                       in declaration order (bools as u8, rx_hops
//                       as i32)
//
// It is read strictly: a torn, bit-rotted, foreign or out-of-domain
// blob reads as nullopt, never as a wrong result.
#pragma once

#include <filesystem>
#include <map>
#include <optional>
#include <string>

#include "exp/runner.hpp"

namespace peerscope::exp {

inline constexpr const char* kJournalSchema = "peerscope.journal/1";
inline constexpr std::uint32_t kRunResultMagic = 0x50535252;  // "PSRR"
inline constexpr std::uint16_t kRunResultVersion = 1;

/// Stable identity of a RunSpec for journal matching: application,
/// seed, duration, record retention, and a fingerprint of any fault
/// injection. Two specs with the same id produce byte-identical
/// results, which is what makes replaying a journal entry sound.
[[nodiscard]] std::string spec_id(const RunSpec& spec);

/// Filesystem-safe blob filename for a spec id (sanitized id plus a
/// collision-proofing hash suffix, ".result" extension).
[[nodiscard]] std::string spec_artifact_name(const std::string& id);

/// Filesystem-safe flight-recorder dump filename for a spec id (same
/// sanitize + hash scheme, ".trace.json" extension). supervise_runs
/// writes a failed or timed-out run's last trace events here, inside
/// `<journal>.d/` next to the spec's journal entry.
[[nodiscard]] std::string spec_flight_name(const std::string& id);

struct JournalEntry {
  std::string spec;      // spec_id()
  std::string state;     // "ok" | "failed" | "timed_out"
  int attempts = 0;      // attempts consumed by this chain
  std::string error;     // diagnostic for failed / timed_out
  std::string artifact;  // blob filename relative to the journal's dir
};

/// Starts a fresh journal: atomically replaces `path` with just the
/// schema header line. Any previous content is discarded — call this
/// for a non-resume batch so stale entries cannot leak in.
void journal_begin(const std::filesystem::path& path);

/// Appends one entry as a single fsync'd JSON line. Once this
/// returns, the entry survives a crash.
void journal_append(const std::filesystem::path& path,
                    const JournalEntry& entry);

/// Replays a journal into a spec-id -> entry map (last entry per spec
/// wins). Returns an empty map when the file does not exist. A torn or
/// malformed trailing line — the signature of a crash mid-append — is
/// skipped. Throws std::runtime_error when the file exists but does
/// not carry the peerscope.journal/1 header (refusing to resume
/// against something that is not our journal).
[[nodiscard]] std::map<std::string, JournalEntry> journal_replay(
    const std::filesystem::path& path);

/// Persists a completed RunResult (atomic + durable). Every field of
/// the observation bundle is integral, so the blob roundtrips exactly
/// and analysis over a reloaded result is byte-identical to analysis
/// over the in-memory one.
void write_run_result(const std::filesystem::path& path,
                      const RunResult& result);

/// Reloads a blob written by write_run_result. Returns nullopt when
/// the file is missing or does not decode — resume treats that as "not
/// actually finished" and reruns the spec. Throws nothing of its own.
[[nodiscard]] std::optional<RunResult> read_run_result(
    const std::filesystem::path& path);

}  // namespace peerscope::exp
