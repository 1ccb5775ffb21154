// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78).
//
// The checksum behind every util::framing container: the PSBT trace
// format (trace/binary_format.hpp), the journal's PSRR result blobs
// (exp/journal.cpp) and the PSTS series. CRC-32C is the iSCSI/ext4
// polynomial, with better burst-error detection than CRC-32/zlib.
//
// It sits on the trace I/O hot path: every 19-byte PSBT record frame is
// checksummed on write and again on read (1.9M frames per SopCast
// capture), and so is every ~150-byte journal observation frame. The
// kernel is portable slicing-by-8, eight table lookups per 8 bytes:
// 1.9M 19-byte frames take 0.021 s, against 0.063 s byte at a time
// and 0.016 s with the SSE4.2 crc32 instruction (one core of a 4 vCPU
// Xeon host, GCC 12.2). That last 0.005 s is not worth a second,
// ISA-specific path behind CPU dispatch.
#pragma once

#include <cstdint>
#include <string_view>

namespace peerscope::util {

/// CRC-32C of `data`, with the conventional ~0 pre/post conditioning
/// (crc32c("") == 0, crc32c("123456789") == 0xe3069283).
[[nodiscard]] std::uint32_t crc32c(std::string_view data);

/// Streaming form: feed the previous return value back in as `seed`
/// to checksum data that arrives in pieces. Start with seed 0.
[[nodiscard]] std::uint32_t crc32c_extend(std::uint32_t seed,
                                          std::string_view data);

}  // namespace peerscope::util
