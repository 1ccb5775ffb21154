// Deterministic storage fault injection (DESIGN.md §15).
//
// Every byte peerscope persists — trace files, journals, capture
// metadata, metrics/trace/bench sidecars — funnels through the hooks
// in this header: `write_some`, `fsync_file`, `rename_file` on the
// write path (called by util::write_file_atomic) and `read_file` on
// the read path. With no fault plan installed each hook is the raw
// syscall behind a single relaxed atomic load, so clean runs are
// byte-identical to a build without the shim. With a plan installed,
// the hooks consult a seeded, schedule-driven fault table and inject
// the storage failures that are routine at the paper's >140M-packet
// capture scale: short writes, EINTR storms, disk-full at byte N,
// failed fsync/rename, short reads, and single-bit flips.
//
// Fault-schedule grammar (one spec, comma-separated faults):
//
//   fault   := kind [ '@' offset ] [ '#' nth ] [ ':' path-substr ]
//   kind    := short-read | short-write | eintr | enospc
//            | fsync-fail | rename-fail | bitflip
//
// `@offset` — byte position the fault keys on (ENOSPC: file fails at
// byte N; bitflip: bit index K within the file; eintr: storm length;
// short-read: bytes surviving). `#nth` — fire on the nth matching
// call (default 1). `:substr` — only paths containing substr are
// eligible. Each fault fires once (ENOSPC is sticky per path — a full
// disk does not un-fill because the caller retried). Unset offsets
// are drawn from the seeded RNG so chaos sweeps explore different
// corruption sites per seed while staying reproducible.
//
// Activation: `peerscope --io-faults <spec> [--io-faults-seed N]`.
// Injections bump `io.*` counters and emit an `io.fault_injected`
// trace instant.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace peerscope::util::io {

enum class FaultKind : std::uint8_t {
  kShortRead,
  kShortWrite,
  kEintr,
  kEnospc,
  kFsyncFail,
  kRenameFail,
  kBitFlip,
};

/// One entry in a fault schedule. See the grammar above.
struct FaultSpec {
  FaultKind kind = FaultKind::kShortWrite;
  std::optional<std::uint64_t> offset;  // meaning depends on kind
  std::uint32_t nth = 1;                // fire on the nth matching call
  std::string path_substr;              // empty = any path
};

/// A parsed, seeded fault schedule.
struct FaultPlan {
  std::vector<FaultSpec> faults;
  std::uint64_t seed = 0;

  /// Parses the grammar above. Throws std::invalid_argument with a
  /// message naming the bad clause on malformed input.
  [[nodiscard]] static FaultPlan parse(std::string_view spec,
                                       std::uint64_t seed = 0);
};

/// Installs `plan` process-wide; replaces any previous plan and
/// resets all armed/spent state. Thread-safe.
void install_faults(FaultPlan plan);

/// Removes the installed plan; hooks revert to raw syscalls.
void clear_faults();

/// True when a plan with at least one fault is installed. A single
/// relaxed atomic load — the whole cost of the shim on clean runs.
[[nodiscard]] bool faults_enabled();

/// Counters mirroring the io.* metrics, readable without an obs
/// registry — the chaos harness asserts on these directly.
struct FaultCounters {
  std::uint64_t injected = 0;
  std::uint64_t eintr_retries = 0;
  std::uint64_t short_writes = 0;
  std::uint64_t short_reads = 0;
  std::uint64_t enospc_failures = 0;
  std::uint64_t fsync_failures = 0;
  std::uint64_t rename_failures = 0;
  std::uint64_t bitflips = 0;
};
[[nodiscard]] FaultCounters fault_counters();

/// write(2) with injection. `file_offset` is where `data` lands in
/// the destination file (the caller's running byte count) so offset
/// faults key on file position, not call boundaries. Returns bytes
/// written (possibly short), or -1 with errno set.
[[nodiscard]] ssize_t write_some(int fd, const char* data, std::size_t n,
                                 std::uint64_t file_offset,
                                 const std::filesystem::path& path);

/// fsync(2) with injection. Returns 0 or -1 with errno set.
[[nodiscard]] int fsync_file(int fd, const std::filesystem::path& path);

/// rename(2) with injection. Returns 0 or -1 with errno set.
[[nodiscard]] int rename_file(const std::filesystem::path& from,
                              const std::filesystem::path& to);

/// Slurps `path` (the read-path hook every src/ reader routes
/// through). Returns nullopt when the file cannot be opened; injected
/// short reads truncate the returned contents.
[[nodiscard]] std::optional<std::string> read_file(
    const std::filesystem::path& path);

}  // namespace peerscope::util::io
