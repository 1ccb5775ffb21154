// Record-framed checksummed binary trace format ("PSBT"), the native
// trace format `peerscope run` writes and `analyze` reads.
//
// PSBT is a util::framing container (layout and salvage semantics in
// util/framing.hpp, DESIGN.md §15): its 4-byte header extension is the
// capturing probe's IPv4 address, and every frame is exactly one
// 19-byte record — a frame of any other length is damage. Every record
// carries its own CRC-32C and periodic sync markers let a salvage
// reader resynchronise past damaged regions. A CRC-valid record with
// out-of-domain field values is skipped alone. The parse_* functions
// take a string_view, so a reader can parse straight out of an mmap'd
// view.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "net/ipv4.hpp"
#include "trace/io.hpp"
#include "trace/record.hpp"
#include "util/framing.hpp"
#include "util/salvage.hpp"

namespace peerscope::trace {

inline constexpr std::uint32_t kBinaryTraceMagic = 0x50534254;  // "PSBT"
inline constexpr std::uint16_t kBinaryTraceVersion = 1;

/// Writes one probe's records in PSBT framing (atomic + durable).
/// Throws std::length_error on absurd record counts.
void write_trace_binary(
    const std::filesystem::path& path, net::Ipv4Addr probe,
    const std::vector<PacketRecord>& records,
    std::uint32_t sync_interval = util::framing::kDefaultSyncInterval);

/// Strict reader: throws std::runtime_error on any malformation —
/// bad magic/version/CRC, frame damage, truncation, count mismatch.
[[nodiscard]] TraceFile read_trace_binary(const std::filesystem::path& path);

/// Salvage reader: recovers every record outside damaged regions,
/// resynchronising at sync markers, and accounts each drop in
/// `report`. Only failure to open the file throws.
[[nodiscard]] TraceFile read_trace_binary_salvage(
    const std::filesystem::path& path, util::SalvageReport* report = nullptr);

/// Buffer-level parsers behind the readers above; `origin` names the
/// source in error messages. These are the mmap-friendly entry points.
[[nodiscard]] TraceFile parse_trace_binary(std::string_view buf,
                                           const std::string& origin);
[[nodiscard]] TraceFile parse_trace_binary_salvage(
    std::string_view buf, util::SalvageReport* report = nullptr);

}  // namespace peerscope::trace
