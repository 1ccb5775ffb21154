#include "util/framing.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/crc32c.hpp"

namespace peerscope::util::framing {

namespace {

constexpr std::size_t kBaseHeaderSize = 24;  // header without the extension
constexpr std::size_t kSyncMarkerSize = 16;
constexpr std::size_t kFrameOverhead = 8;  // payload_len + payload_crc

[[nodiscard]] std::size_t header_size(const FrameFormat& format) {
  return kBaseHeaderSize + format.header_ext_len;
}

/// Parses and CRC-verifies the header against `format`. Returns the
/// failure reason, or empty on success.
[[nodiscard]] std::string parse_header(const FrameFormat& format,
                                       std::string_view buf,
                                       FrameHeader& out) {
  const std::size_t size = header_size(format);
  if (buf.size() < size) {
    return "truncated header";
  }
  const char* ptr = buf.data();
  if (get<std::uint32_t>(ptr) != format.magic) {
    return "bad magic";
  }
  if (const auto version = get<std::uint16_t>(ptr);
      version != format.version) {
    return "unsupported version " + std::to_string(version);
  }
  (void)get<std::uint16_t>(ptr);  // reserved
  out.ext = std::string_view{ptr, format.header_ext_len};
  ptr += format.header_ext_len;
  out.record_count = get<std::uint64_t>(ptr);
  out.sync_interval = get<std::uint32_t>(ptr);
  const auto stored = get<std::uint32_t>(ptr);
  if (stored != crc32c(buf.substr(0, size - 4))) {
    return "header checksum mismatch";
  }
  out.capacity = std::min<std::uint64_t>(
      out.record_count,
      (buf.size() - size) / (kFrameOverhead + format.min_record_len));
  return {};
}

/// True when the 16 bytes at `p` are a CRC-valid sync marker.
[[nodiscard]] bool valid_sync_marker(std::string_view buf, std::size_t p,
                                     std::uint64_t& index_out) {
  if (buf.size() - p < kSyncMarkerSize) {
    return false;
  }
  const char* ptr = buf.data() + p;
  if (get<std::uint32_t>(ptr) != kSyncMagic) {
    return false;
  }
  const std::uint64_t index = get<std::uint64_t>(ptr);
  if (get<std::uint32_t>(ptr) != crc32c(buf.substr(p, 12))) {
    return false;
  }
  index_out = index;
  return true;
}

}  // namespace

FrameEncoder::FrameEncoder(const FrameFormat& format, std::string& out,
                           std::uint64_t record_count,
                           std::uint32_t sync_interval,
                           std::string_view header_ext)
    : format_(format),
      out_(out),
      record_count_(record_count),
      sync_interval_(sync_interval) {
  if (header_ext.size() != format.header_ext_len) {
    throw std::invalid_argument(
        "FrameEncoder: header extension is " +
        std::to_string(header_ext.size()) + " bytes, format wants " +
        std::to_string(format.header_ext_len));
  }
  if (format.min_record_len == format.max_record_len) {
    const std::uint64_t markers =
        sync_interval > 0 && record_count > 0
            ? (record_count - 1) / sync_interval
            : 0;
    out.reserve(out.size() + header_size(format) +
                record_count * (kFrameOverhead + format.max_record_len) +
                markers * kSyncMarkerSize);
  }
  const std::size_t start = out.size();
  put<std::uint32_t>(out, format.magic);
  put<std::uint16_t>(out, format.version);
  put<std::uint16_t>(out, 0);  // reserved
  out.append(header_ext);
  put<std::uint64_t>(out, record_count);
  put<std::uint32_t>(out, sync_interval);
  put<std::uint32_t>(out, crc32c(std::string_view{out}.substr(start)));
}

void FrameEncoder::append(std::string_view payload) {
  if (payload.size() < format_.min_record_len ||
      payload.size() > format_.max_record_len) {
    throw std::length_error(
        "FrameEncoder: payload " + std::to_string(index_) + " is " +
        std::to_string(payload.size()) + " bytes, allowed " +
        std::to_string(format_.min_record_len) + ".." +
        std::to_string(format_.max_record_len));
  }
  if (index_ == record_count_) {
    throw std::logic_error("FrameEncoder: more payloads than the " +
                           std::to_string(record_count_) + " declared");
  }
  if (sync_interval_ > 0 && index_ > 0 && index_ % sync_interval_ == 0) {
    const std::size_t marker_start = out_.size();
    put<std::uint32_t>(out_, kSyncMagic);
    put<std::uint64_t>(out_, index_);
    put<std::uint32_t>(
        out_, crc32c(std::string_view{out_}.substr(marker_start, 12)));
  }
  put<std::uint32_t>(out_, static_cast<std::uint32_t>(payload.size()));
  put<std::uint32_t>(out_, crc32c(payload));
  out_.append(payload);
  ++index_;
}

void decode_frames_salvage(const FrameFormat& format, std::string_view buf,
                           const FrameVisitor& visit, SalvageReport& rep) {
  rep = SalvageReport{};

  FrameHeader header;
  if (const std::string err = parse_header(format, buf, header);
      !err.empty()) {
    rep.bytes_discarded = buf.size();
    rep.note = err;
    return;
  }
  rep.header_valid = true;
  visit.header(header);

  // `seen` counts stream positions consumed (recovered or skipped);
  // the invariant recovered + skipped == declared holds on exit.
  // `marker_due` is the index of the next sync marker the writer will
  // have emitted — tracked explicitly so that resyncing *to* a marker
  // does not leave the loop expecting that same marker again.
  std::uint64_t seen = 0;
  std::uint64_t marker_due =
      header.sync_interval > 0 ? header.sync_interval : 0;
  std::size_t pos = header_size(format);
  bool damaged = false;  // in a poisoned region, looking for a marker

  while (seen < header.record_count) {
    if (damaged) {
      // Resync: scan byte-by-byte for a CRC-valid marker whose index
      // both advances the stream and lands on the writer's cadence.
      const std::size_t scan_start = pos;
      std::size_t found = std::string_view::npos;
      std::uint64_t found_index = 0;
      for (std::size_t p = pos; p + kSyncMarkerSize <= buf.size(); ++p) {
        std::uint64_t index = 0;
        if (valid_sync_marker(buf, p, index) && index > seen &&
            index <= header.record_count && header.sync_interval > 0 &&
            index % header.sync_interval == 0) {
          found = p;
          found_index = index;
          break;
        }
      }
      if (found == std::string_view::npos) {
        rep.bytes_discarded += buf.size() - scan_start;
        rep.records_skipped += header.record_count - seen;
        rep.truncated = true;
        if (rep.note.empty()) {
          rep.note = "no sync marker after corrupt frame";
        }
        seen = header.record_count;
        break;
      }
      rep.bytes_discarded += found - scan_start;
      rep.records_skipped += found_index - seen;
      seen = found_index;
      marker_due = found_index + header.sync_interval;
      pos = found + kSyncMarkerSize;
      damaged = false;
      continue;
    }

    if (header.sync_interval > 0 && seen > 0 && seen == marker_due) {
      std::uint64_t index = 0;
      if (!valid_sync_marker(buf, pos, index) || index != seen) {
        if (rep.note.empty()) {
          rep.note = "bad sync marker before record " + std::to_string(seen);
        }
        damaged = true;
        continue;
      }
      marker_due += header.sync_interval;
      pos += kSyncMarkerSize;
    }

    if (buf.size() - pos < kFrameOverhead) {
      rep.bytes_discarded += buf.size() - pos;
      rep.records_skipped += header.record_count - seen;
      rep.truncated = true;
      if (rep.note.empty()) {
        rep.note = "file ends " + std::to_string(header.record_count - seen) +
                   " records short of the declared count";
      }
      seen = header.record_count;
      break;
    }
    const char* ptr = buf.data() + pos;
    const auto len = get<std::uint32_t>(ptr);
    const auto crc = get<std::uint32_t>(ptr);
    if (len < format.min_record_len || len > format.max_record_len) {
      if (rep.note.empty()) {
        rep.note = "corrupt frame length at record " + std::to_string(seen);
      }
      damaged = true;
      continue;
    }
    if (buf.size() - pos - kFrameOverhead < len) {
      rep.bytes_discarded += buf.size() - pos;
      rep.records_skipped += header.record_count - seen;
      rep.truncated = true;
      if (rep.note.empty()) {
        rep.note = "file ends mid-record at index " + std::to_string(seen);
      }
      seen = header.record_count;
      break;
    }
    const std::string_view payload = buf.substr(pos + kFrameOverhead, len);
    if (crc != crc32c(payload)) {
      if (rep.note.empty()) {
        rep.note = "checksum mismatch at record " + std::to_string(seen);
      }
      damaged = true;
      continue;
    }
    if (visit.payload(payload)) {
      ++rep.records_recovered;
    } else {
      // CRC-valid but out of domain: the frame boundary is intact, so
      // only this record is lost.
      ++rep.records_skipped;
      ++rep.records_rejected;
      if (rep.note.empty()) {
        rep.note = "corrupt record at index " + std::to_string(seen);
      }
    }
    ++seen;
    pos += kFrameOverhead + len;
  }

  if (!rep.truncated && pos < buf.size()) {
    rep.bytes_discarded += buf.size() - pos;
    if (rep.note.empty()) {
      rep.note = "trailing garbage after declared records";
    }
  }
}

void decode_frames(const FrameFormat& format, std::string_view buf,
                   const FrameVisitor& visit, const std::string& origin) {
  SalvageReport report;
  decode_frames_salvage(format, buf, visit, report);
  if (!report.clean()) {
    throw std::runtime_error(origin + ": " + report.note);
  }
}

}  // namespace peerscope::util::framing
