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

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>(v >> 8));
}
void put_u32(std::string& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
}
// Network byte order (big-endian) for the IP/UDP header fields.
void put_be16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v >> 8));
  out.push_back(static_cast<char>(v & 0xff));
}
void put_be32(std::string& out, std::uint32_t v) {
  put_be16(out, static_cast<std::uint16_t>(v >> 16));
  put_be16(out, static_cast<std::uint16_t>(v & 0xffff));
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
  out.reserve(24 + records.size() * (16 + kSnaplen));

  // Global header.
  put_u32(out, kPcapMagic);
  put_u16(out, kVersionMajor);
  put_u16(out, kVersionMinor);
  put_u32(out, 0);  // thiszone
  put_u32(out, 0);  // sigfigs
  put_u32(out, kSnaplen);
  put_u32(out, kLinkTypeRaw);

  for (const auto& r : records) {
    const bool rx = r.dir == Direction::kRx;
    const net::Ipv4Addr src = rx ? r.remote : probe;
    const net::Ipv4Addr dst = rx ? probe : r.remote;
    const std::uint8_t ttl = rx ? r.ttl : sim::kInitialTtl;
    const auto total_len =
        static_cast<std::uint16_t>(std::max(r.bytes, 28));
    const std::uint32_t incl_len =
        std::min<std::uint32_t>(kSnaplen, total_len);

    // Record header: seconds, microseconds, captured, original.
    const std::int64_t ns = r.ts.ns();
    put_u32(out, static_cast<std::uint32_t>(ns / 1'000'000'000));
    put_u32(out, static_cast<std::uint32_t>((ns % 1'000'000'000) / 1'000));
    put_u32(out, incl_len);
    put_u32(out, total_len);

    // IPv4 header (20 bytes).
    std::string pkt;
    pkt.reserve(incl_len);
    pkt.push_back(0x45);  // version 4, IHL 5
    pkt.push_back(0x00);  // DSCP/ECN
    put_be16(pkt, total_len);
    put_be16(pkt, 0);       // identification
    put_be16(pkt, 0x4000);  // DF
    pkt.push_back(static_cast<char>(ttl));
    pkt.push_back(17);  // UDP
    put_be16(pkt, 0);   // checksum placeholder
    put_be32(pkt, src.bits());
    put_be32(pkt, dst.bits());
    const std::uint16_t checksum = ipv4_header_checksum(
        reinterpret_cast<const std::uint8_t*>(pkt.data()), 20);
    pkt[10] = static_cast<char>(checksum >> 8);
    pkt[11] = static_cast<char>(checksum & 0xff);

    // UDP header (8 bytes); checksum 0 = not computed (legal for IPv4).
    put_be16(pkt, kAppPort);
    put_be16(pkt, kAppPort);
    put_be16(pkt, static_cast<std::uint16_t>(total_len - 20));
    put_be16(pkt, 0);

    pkt.resize(incl_len, '\0');
    out += pkt;
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
