// CRC-32C record framing with sync-marker resynchronisation: the one
// checksummed container behind the PSBT trace files
// (trace/binary_format.hpp), the PSTS time-series sidecar
// (obs/timeseries.hpp) and the PSRR journal result blobs
// (exp/journal.hpp). Every record carries its own checksum,
// periodic sync markers let a salvage reader step past damaged
// regions, and recovered + skipped always reconciles against the
// header's declared count.
//
// Layout (little-endian throughout):
//
//   header (24 + header_ext_len bytes):
//     u32 magic          caller-chosen container magic
//     u16 version        caller-chosen format version
//     u16 reserved       0
//     ext                header_ext_len caller bytes (PSBT: u32 probe
//                        address; PSTS, PSRR: none)
//     u64 record_count
//     u32 sync_interval  records between sync markers (0 = none)
//     u32 header_crc     CRC-32C over every preceding header byte
//
//   stream: records, with a sync marker before record i whenever
//   i % sync_interval == 0 (i > 0):
//     record frame:  u32 payload_len · u32 payload_crc · payload
//     sync marker:   u32 0x53594e43 "SYNC" · u64 record_index ·
//                    u32 marker_crc (CRC-32C over the preceding 12)
//
// Salvage semantics: a frame whose length is outside the format's
// bounds or whose CRC fails poisons the stream until the next
// verifiable sync marker, and the marker's record_index accounts
// exactly how many records the damaged region swallowed. A CRC-valid
// payload the caller rejects as out of domain is skipped alone (its
// boundary survives). The strict decoder is the same loop, throwing
// unless the report comes back clean. These functions are buffer-level
// only — callers persist through util::write_file_atomic and read back
// through util::io::read_file so the io_faults shim covers every byte.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/salvage.hpp"

namespace peerscope::util::framing {

inline constexpr std::uint32_t kSyncMagic = 0x53594e43;  // "SYNC"
inline constexpr std::uint32_t kDefaultSyncInterval = 256;

/// Appends `value`'s bytes to `buf`, little-endian (the host is:
/// x86/ARM64). Payload encoders build their frames with it.
template <typename T>
void put(std::string& buf, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  buf.append(bytes, sizeof(T));
}

/// Reads a little-endian T at `ptr` and advances `ptr` past it. The
/// caller has checked that sizeof(T) bytes remain.
template <typename T>
T get(const char*& ptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, ptr, sizeof(T));
  ptr += sizeof(T);
  return value;
}

/// Container identity + limits, fixed per format by the caller.
struct FrameFormat {
  std::uint32_t magic = 0;
  std::uint16_t version = 1;
  /// Frames longer than this are treated as corruption, not data — it
  /// keeps a flipped length bit from sending the reader gigabytes
  /// ahead.
  std::uint32_t max_record_len = 4096;
  /// Frames shorter than this are corruption too; a fixed-size record
  /// format sets both bounds to its record size.
  std::uint32_t min_record_len = 0;
  /// Bytes of per-file caller data between the reserved u16 and
  /// record_count.
  std::uint32_t header_ext_len = 0;
};

/// Appends one framed stream to a caller-owned buffer: the header on
/// construction, then per append() the sync marker due (if any) and
/// the payload's frame. Nothing is allocated per record beyond `out`'s
/// own growth, and a fixed-size format reserves the whole stream up
/// front.
class FrameEncoder {
 public:
  /// Throws std::invalid_argument unless `header_ext` is exactly
  /// format.header_ext_len bytes. `sync_interval` of 0 disables sync
  /// markers — legal, but a corrupt record then costs the rest of the
  /// stream in salvage.
  FrameEncoder(const FrameFormat& format, std::string& out,
               std::uint64_t record_count,
               std::uint32_t sync_interval = kDefaultSyncInterval,
               std::string_view header_ext = {});

  /// Throws std::length_error when the payload's length is outside the
  /// format's bounds, and std::logic_error past the declared count.
  void append(std::string_view payload);

 private:
  FrameFormat format_;
  std::string& out_;
  std::uint64_t record_count_;
  std::uint32_t sync_interval_;
  std::uint64_t index_ = 0;
};

/// A verified header, handed to the visitor before any payload.
struct FrameHeader {
  /// The format's header_ext_len extension bytes.
  std::string_view ext;
  std::uint64_t record_count = 0;
  std::uint32_t sync_interval = 0;
  /// record_count capped at the frames the buffer can physically hold:
  /// the most a reader should reserve, whatever a crafted header
  /// declares.
  std::uint64_t capacity = 0;
};

struct FrameVisitor {
  /// Called once with the verified header; not called when the header
  /// is unusable.
  std::function<void(const FrameHeader&)> header = [](const FrameHeader&) {};
  /// Called with every CRC-valid payload, in stream order. Returns
  /// false when the payload is out of domain: it is then counted in
  /// records_rejected and skipped alone.
  std::function<bool(std::string_view)> payload;
};

/// The one decode loop: visits every payload outside damaged regions,
/// resynchronising at sync markers, and accounts each drop in
/// `report`. Throws only what the visitor throws.
void decode_frames_salvage(const FrameFormat& format, std::string_view buf,
                           const FrameVisitor& visit, SalvageReport& report);

/// Strict decoder: decode_frames_salvage, then throws
/// std::runtime_error naming `origin` unless the report is clean — bad
/// magic/version/CRC, frame damage, a rejected payload, truncation or
/// trailing garbage.
void decode_frames(const FrameFormat& format, std::string_view buf,
                   const FrameVisitor& visit, const std::string& origin);

}  // namespace peerscope::util::framing
