#include "trace/pcap.hpp"

#include <cstring>
#include <stdexcept>

#include "sim/packet.hpp"
#include "util/atomic_file.hpp"
#include "util/io_faults.hpp"

namespace peerscope::trace {

namespace {

constexpr std::uint32_t kPcapMagic = 0xa1b2c3d4;  // microsecond timestamps
constexpr std::uint16_t kVersionMajor = 2;
constexpr std::uint16_t kVersionMinor = 4;
constexpr std::uint32_t kLinkTypeRaw = 101;  // raw IPv4/IPv6
/// UDP port the synthetic P2P-TV application speaks on.
constexpr std::uint16_t kAppPort = 4004;
/// Bytes of each packet actually stored: the IPv4 and UDP headers.
constexpr std::uint32_t kSnaplen = 28;

/// Bytes of each record: the 16-byte record header, then the stored
/// packet bytes.
constexpr std::size_t kRecordLen = 16 + kSnaplen;

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}
// Network byte order (big-endian) for the IP/UDP header fields.
void store_be16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}
void store_be32(std::uint8_t* p, std::uint32_t v) {
  store_be16(p, static_cast<std::uint16_t>(v >> 16));
  store_be16(p + 2, static_cast<std::uint16_t>(v));
}

std::uint16_t read_u16(const char*& p) {
  const auto lo = static_cast<std::uint8_t>(*p++);
  const auto hi = static_cast<std::uint8_t>(*p++);
  return static_cast<std::uint16_t>(lo | (hi << 8));
}
std::uint32_t read_u32(const char*& p) {
  const std::uint16_t lo = read_u16(p);
  const std::uint16_t hi = read_u16(p);
  return static_cast<std::uint32_t>(lo) | (static_cast<std::uint32_t>(hi) << 16);
}
std::uint16_t read_be16(const char*& p) {
  const auto hi = static_cast<std::uint8_t>(*p++);
  const auto lo = static_cast<std::uint8_t>(*p++);
  return static_cast<std::uint16_t>((hi << 8) | lo);
}
std::uint32_t read_be32(const char*& p) {
  const std::uint16_t hi = read_be16(p);
  const std::uint16_t lo = read_be16(p);
  return (static_cast<std::uint32_t>(hi) << 16) | lo;
}

}  // namespace

std::uint16_t ipv4_header_checksum(const std::uint8_t* header,
                                   std::size_t length) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < length; i += 2) {
    sum += static_cast<std::uint32_t>((header[i] << 8) | header[i + 1]);
  }
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

void write_pcap(const std::filesystem::path& path, net::Ipv4Addr probe,
                const std::vector<PacketRecord>& records) {
  std::string out;
  out.reserve(24 + records.size() * kRecordLen);

  // Global header.
  std::uint8_t header[24];
  store_le32(header, kPcapMagic);
  store_le32(header + 4,  // two u16: major, then minor
             kVersionMajor | std::uint32_t{kVersionMinor} << 16);
  store_le32(header + 8, 0);   // thiszone
  store_le32(header + 12, 0);  // sigfigs
  store_le32(header + 16, kSnaplen);
  store_le32(header + 20, kLinkTypeRaw);
  out.append(reinterpret_cast<const char*>(header), sizeof header);

  // Each record is packed in place and appended once. Every packet is
  // at least the 28 header bytes stored, so each stores exactly
  // kSnaplen bytes.
  for (const auto& r : records) {
    std::uint8_t rec[kRecordLen];
    const bool rx = r.dir == Direction::kRx;
    const net::Ipv4Addr src = rx ? r.remote : probe;
    const net::Ipv4Addr dst = rx ? probe : r.remote;
    const std::uint8_t ttl = rx ? r.ttl : sim::kInitialTtl;
    const auto total_len =
        static_cast<std::uint16_t>(std::max(r.bytes, 28));

    // Record header: seconds, microseconds, captured, original.
    const std::int64_t ns = r.ts.ns();
    store_le32(rec, static_cast<std::uint32_t>(ns / 1'000'000'000));
    store_le32(rec + 4,
               static_cast<std::uint32_t>((ns % 1'000'000'000) / 1'000));
    store_le32(rec + 8, kSnaplen);
    store_le32(rec + 12, total_len);

    // IPv4 header (20 bytes).
    std::uint8_t* ip = rec + 16;
    ip[0] = 0x45;  // version 4, IHL 5
    ip[1] = 0x00;  // DSCP/ECN
    store_be16(ip + 2, total_len);
    store_be16(ip + 4, 0);       // identification
    store_be16(ip + 6, 0x4000);  // DF
    ip[8] = ttl;
    ip[9] = 17;              // UDP
    store_be16(ip + 10, 0);  // checksum placeholder
    store_be32(ip + 12, src.bits());
    store_be32(ip + 16, dst.bits());
    store_be16(ip + 10, ipv4_header_checksum(ip, 20));

    // UDP header (8 bytes); checksum 0 = not computed (legal for IPv4).
    store_be16(ip + 20, kAppPort);
    store_be16(ip + 22, kAppPort);
    store_be16(ip + 24, static_cast<std::uint16_t>(total_len - 20));
    store_be16(ip + 26, 0);

    out.append(reinterpret_cast<const char*>(rec), sizeof rec);
  }

  util::write_file_atomic(path, out);
}

std::vector<PacketRecord> read_pcap(const std::filesystem::path& path,
                                    net::Ipv4Addr probe) {
  const auto slurped = util::io::read_file(path);
  if (!slurped) {
    throw std::runtime_error("read_pcap: cannot open " + path.string());
  }
  const std::string& buf = *slurped;
  if (buf.size() < 24) {
    throw std::runtime_error("read_pcap: truncated global header");
  }
  const char* p = buf.data();
  const char* end = buf.data() + buf.size();
  if (read_u32(p) != kPcapMagic) {
    throw std::runtime_error("read_pcap: bad magic");
  }
  (void)read_u16(p);  // version major
  (void)read_u16(p);  // version minor
  (void)read_u32(p);  // thiszone
  (void)read_u32(p);  // sigfigs
  (void)read_u32(p);  // snaplen
  if (read_u32(p) != kLinkTypeRaw) {
    throw std::runtime_error("read_pcap: unexpected link type");
  }

  std::vector<PacketRecord> records;
  while (p < end) {
    if (static_cast<std::size_t>(end - p) < 16) {
      throw std::runtime_error("read_pcap: truncated record header");
    }
    const std::uint32_t sec = read_u32(p);
    const std::uint32_t usec = read_u32(p);
    const std::uint32_t incl = read_u32(p);
    const std::uint32_t orig = read_u32(p);
    if (incl < 28 || static_cast<std::size_t>(end - p) < incl) {
      throw std::runtime_error("read_pcap: truncated packet");
    }
    if (orig < 28 || orig > 65535 || incl > orig) {
      // The writer stores original length as a 16-bit IPv4 total; a
      // value outside it would alias to a negative byte count below.
      throw std::runtime_error("read_pcap: implausible original length");
    }
    const char* ip = p;
    p += incl;

    if ((static_cast<std::uint8_t>(ip[0]) >> 4) != 4) {
      throw std::runtime_error("read_pcap: not IPv4");
    }
    const auto ttl = static_cast<std::uint8_t>(ip[8]);
    const char* addr_ptr = ip + 12;
    const net::Ipv4Addr src{read_be32(addr_ptr)};
    const net::Ipv4Addr dst{read_be32(addr_ptr)};

    PacketRecord r;
    r.ts = util::SimTime::nanos(static_cast<std::int64_t>(sec) *
                                    1'000'000'000 +
                                static_cast<std::int64_t>(usec) * 1'000);
    r.bytes = static_cast<std::int32_t>(orig);
    if (dst == probe) {
      r.dir = Direction::kRx;
      r.remote = src;
      r.ttl = ttl;
    } else if (src == probe) {
      r.dir = Direction::kTx;
      r.remote = dst;
      r.ttl = ttl;
    } else {
      throw std::runtime_error("read_pcap: packet does not involve probe");
    }
    // Payload kind is not expressible in pcap; classify by size the way
    // the paper's heuristics do (video packets ride near-MTU sizes).
    r.kind = r.bytes >= 1000 ? sim::PacketKind::kVideo
                             : sim::PacketKind::kSignaling;
    records.push_back(r);
  }
  return records;
}

}  // namespace peerscope::trace
