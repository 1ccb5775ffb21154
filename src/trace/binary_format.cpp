#include "trace/binary_format.hpp"

#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "obs/metrics.hpp"
#include "util/atomic_file.hpp"
#include "util/io_faults.hpp"

namespace peerscope::trace {

namespace {

// Record payload, 19 bytes little-endian: i64 ts_ns · u32 remote ·
// i32 bytes · u8 dir · u8 kind · u8 ttl.
constexpr std::uint32_t kRecordSize = 8 + 4 + 4 + 1 + 1 + 1;

constexpr util::framing::FrameFormat kFormat{
    .magic = kBinaryTraceMagic,
    .version = kBinaryTraceVersion,
    .max_record_len = kRecordSize,
    .min_record_len = kRecordSize,
    .header_ext_len = sizeof(std::uint32_t),  // the probe address
};

using util::framing::get;

/// Packs into a fixed buffer rather than framing's string put: the
/// record writer is PSBT's hot path.
template <typename T>
char* put(char* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(out, &value, sizeof(T));  // host is little-endian
  return out + sizeof(T);
}

void pack_record(char* out, const PacketRecord& r) {
  out = put<std::int64_t>(out, r.ts.ns());
  out = put<std::uint32_t>(out, r.remote.bits());
  out = put<std::int32_t>(out, r.bytes);
  out = put<std::uint8_t>(out, static_cast<std::uint8_t>(r.dir));
  out = put<std::uint8_t>(out, static_cast<std::uint8_t>(r.kind));
  put<std::uint8_t>(out, r.ttl);
}

/// Decodes one CRC-valid payload. Returns false when a field is out
/// of domain — possible despite the checksum if the *writer* was fed
/// garbage, so readers still validate.
[[nodiscard]] bool unpack_record(std::string_view payload, PacketRecord& r) {
  const char* ptr = payload.data();
  r.ts = util::SimTime{get<std::int64_t>(ptr)};
  r.remote = net::Ipv4Addr{get<std::uint32_t>(ptr)};
  r.bytes = get<std::int32_t>(ptr);
  const auto dir = get<std::uint8_t>(ptr);
  const auto kind = get<std::uint8_t>(ptr);
  if (dir > 1 || kind > 1 || r.bytes < 0) {
    return false;
  }
  r.dir = static_cast<Direction>(dir);
  r.kind = static_cast<sim::PacketKind>(kind);
  r.ttl = get<std::uint8_t>(ptr);
  return true;
}

/// Fills `file` from a decode: the probe from the header extension,
/// then one record per in-domain payload.
util::framing::FrameVisitor record_reader(TraceFile& file) {
  return {
      .header =
          [&file](const util::framing::FrameHeader& header) {
            const char* ptr = header.ext.data();
            file.probe = net::Ipv4Addr{get<std::uint32_t>(ptr)};
            file.records.reserve(header.capacity);
          },
      .payload =
          [&file](std::string_view payload) {
            PacketRecord r;
            if (!unpack_record(payload, r)) {
              return false;
            }
            file.records.push_back(r);
            return true;
          },
  };
}

void count_salvage(const util::SalvageReport& rep, std::size_t bytes) {
  if (obs::enabled()) {
    obs::counter("trace.binary_files_read").add();
    obs::counter("trace.binary_records_salvaged").add(rep.records_recovered);
    obs::counter("trace.binary_records_dropped").add(rep.records_skipped);
    obs::counter("trace.bytes_read").add(bytes);
    obs::counter("trace.bytes_discarded").add(rep.bytes_discarded);
  }
}

}  // namespace

void write_trace_binary(const std::filesystem::path& path,
                        net::Ipv4Addr probe,
                        const std::vector<PacketRecord>& records,
                        std::uint32_t sync_interval) {
  if (records.size() > std::numeric_limits<std::uint32_t>::max()) {
    // The u64 count field has room, but nothing downstream has been
    // sized for more; fail loudly rather than let a runaway writer
    // fill the disk.
    throw std::length_error(
        "write_trace_binary: record count exceeds the supported 32-bit "
        "limit (" +
        std::to_string(records.size()) + " records)");
  }
  char ext[sizeof(std::uint32_t)];
  put<std::uint32_t>(ext, probe.bits());
  std::string buf;
  util::framing::FrameEncoder encoder{kFormat, buf, records.size(),
                                      sync_interval, {ext, sizeof ext}};
  char payload[kRecordSize];
  for (const PacketRecord& r : records) {
    pack_record(payload, r);
    encoder.append({payload, kRecordSize});
  }

  util::write_file_atomic(path, buf);
  if (obs::enabled()) {
    obs::counter("trace.binary_files_written").add();
    obs::counter("trace.records_written").add(records.size());
    obs::counter("trace.bytes_written").add(buf.size());
  }
}

TraceFile parse_trace_binary(std::string_view buf,
                             const std::string& origin) {
  TraceFile file;
  util::framing::decode_frames(kFormat, buf, record_reader(file), origin);
  if (obs::enabled()) {
    obs::counter("trace.binary_files_read").add();
    obs::counter("trace.records_read").add(file.records.size());
    obs::counter("trace.bytes_read").add(buf.size());
  }
  return file;
}

TraceFile parse_trace_binary_salvage(std::string_view buf,
                                     util::SalvageReport* report) {
  util::SalvageReport local;
  util::SalvageReport& rep = report ? *report : local;
  TraceFile file;
  util::framing::decode_frames_salvage(kFormat, buf, record_reader(file),
                                       rep);
  count_salvage(rep, buf.size());
  return file;
}

TraceFile read_trace_binary(const std::filesystem::path& path) {
  const auto buf = util::io::read_file(path);
  if (!buf) {
    throw std::runtime_error("read_trace_binary: cannot open " +
                             path.string());
  }
  return parse_trace_binary(*buf, path.string());
}

TraceFile read_trace_binary_salvage(const std::filesystem::path& path,
                                    util::SalvageReport* report) {
  const auto buf = util::io::read_file(path);
  if (!buf) {
    throw std::runtime_error("read_trace_binary_salvage: cannot open " +
                             path.string());
  }
  return parse_trace_binary_salvage(*buf, report);
}

}  // namespace peerscope::trace
