// pcap export: writes probe traces as standard libpcap capture files
// (LINKTYPE_RAW, synthetic IPv4/UDP headers) so they can be opened with
// tcpdump/wireshark — the same tooling the paper's authors used on the
// originals. Only headers are materialised (payload bytes are zeroed
// and snapped away); sizes, addresses, TTLs and timestamps are exact.
#pragma once

#include <filesystem>
#include <vector>

#include "net/ipv4.hpp"
#include "trace/record.hpp"

namespace peerscope::trace {

/// Writes `records` (a probe's capture) as a pcap file. RX records
/// become remote->probe datagrams carrying the observed TTL; TX records
/// become probe->remote datagrams with the initial TTL. Each packet
/// keeps its 28 header bytes, with UDP port 4004 at both ends.
void write_pcap(const std::filesystem::path& path, net::Ipv4Addr probe,
                const std::vector<PacketRecord>& records);

/// Minimal reader for round-trip tests: parses a file produced by
/// write_pcap (LINKTYPE_RAW, IPv4/UDP) back into records. Throws on
/// malformed input.
[[nodiscard]] std::vector<PacketRecord> read_pcap(
    const std::filesystem::path& path, net::Ipv4Addr probe);

/// RFC 1071 checksum over a header (for tests and the writer).
[[nodiscard]] std::uint16_t ipv4_header_checksum(
    const std::uint8_t* header, std::size_t length);

}  // namespace peerscope::trace
