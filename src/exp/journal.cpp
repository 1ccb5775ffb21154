#include "exp/journal.hpp"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "util/atomic_file.hpp"
#include "util/crc32c.hpp"
#include "util/io_faults.hpp"
#include "util/json.hpp"

namespace peerscope::exp {

namespace {

namespace json = util::json;

constexpr const char* kResultHeader = "peerscope-runresult 1";

/// FNV-1a over a canonical byte serialization; stable across builds
/// (no type punning of doubles through text formatting).
class Fingerprint {
 public:
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add_double(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string spec_id(const RunSpec& spec) {
  std::string id = spec.profile.name + "#seed=" +
                   std::to_string(spec.seed) + "#dur=" +
                   std::to_string(spec.duration.ns());
  if (spec.keep_records) id += "#rec";
  if (spec.impairment.enabled() || spec.churn.enabled()) {
    Fingerprint fp;
    const auto& imp = spec.impairment;
    fp.add_double(imp.loss_rate);
    fp.add_double(imp.loss_burst);
    fp.add_double(imp.reorder_rate);
    fp.add_u64(static_cast<std::uint64_t>(imp.reorder_delay.ns()));
    fp.add_double(imp.duplicate_rate);
    fp.add_double(imp.outage_per_s);
    fp.add_u64(static_cast<std::uint64_t>(imp.outage_duration.ns()));
    const auto& churn = spec.churn;
    fp.add_double(churn.probe_session_s);
    fp.add_double(churn.probe_downtime_s);
    fp.add_double(churn.bg_session_s);
    fp.add_double(churn.bg_downtime_s);
    fp.add_double(churn.nat_connect_failure);
    fp.add_double(churn.firewall_connect_failure);
    id += "#faults=" + hex16(fp.value());
  }
  if (spec.discovery.enabled()) {
    Fingerprint fp;
    const auto& d = spec.discovery;
    fp.add_u64(static_cast<std::uint64_t>(d.primary));
    fp.add_u64(static_cast<std::uint64_t>(d.fallback));
    fp.add_u64(static_cast<std::uint64_t>(d.tracker_outage_start.ns()));
    fp.add_u64(static_cast<std::uint64_t>(d.tracker_outage_duration.ns()));
    fp.add_double(d.tracker_flap_per_s);
    fp.add_u64(static_cast<std::uint64_t>(d.tracker_flap_duration.ns()));
    fp.add_u64(static_cast<std::uint64_t>(d.failover_after));
    fp.add_u64(static_cast<std::uint64_t>(d.primary_retry.ns()));
    fp.add_u64(static_cast<std::uint64_t>(d.rejoin_deadline.ns()));
    fp.add_u64(static_cast<std::uint64_t>(d.join_backoff.ns()));
    fp.add_u64(static_cast<std::uint64_t>(d.join_backoff_max.ns()));
    fp.add_u64(static_cast<std::uint64_t>(d.flash_crowd_at.ns()));
    fp.add_u64(static_cast<std::uint64_t>(d.flash_crowd_arrivals));
    fp.add_double(d.zap_reuse);
    fp.add_double(d.session_tail_alpha);
    fp.add_u64(static_cast<std::uint64_t>(d.dht.k));
    fp.add_u64(static_cast<std::uint64_t>(d.dht.max_hops));
    fp.add_u64(static_cast<std::uint64_t>(d.dht.hop_timeout.ns()));
    fp.add_u64(static_cast<std::uint64_t>(d.dht.refresh_period.ns()));
    fp.add_u64(static_cast<std::uint64_t>(d.gossip.fanout));
    fp.add_u64(static_cast<std::uint64_t>(d.gossip.exchange_size));
    fp.add_u64(static_cast<std::uint64_t>(d.gossip.period.ns()));
    fp.add_u64(static_cast<std::uint64_t>(d.gossip.partition_after));
    fp.add_u64(static_cast<std::uint64_t>(d.gossip.view_size));
    fp.add_u64(d.nat.enabled ? 1 : 0);
    fp.add_double(d.nat.symmetric_fraction);
    fp.add_double(d.nat.cone_cone);
    fp.add_double(d.nat.cone_symmetric);
    fp.add_double(d.nat.symmetric_symmetric);
    fp.add_double(d.nat.relay_success);
    fp.add_u64(static_cast<std::uint64_t>(d.nat.relay_penalty.ns()));
    id += "#disc=" + hex16(fp.value());
  }
  return id;
}

namespace {

/// Sanitized id + 8-hex-digit fingerprint: filesystem-safe and
/// collision-proof, shared by every per-spec artifact in journal.d.
std::string spec_file_stem(const std::string& id) {
  std::string safe;
  safe.reserve(id.size());
  for (const char c : id) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    safe += keep ? c : '_';
  }
  Fingerprint fp;
  for (const char c : id) fp.add_u64(static_cast<unsigned char>(c));
  return safe + "-" + hex16(fp.value()).substr(0, 8);
}

}  // namespace

std::string spec_artifact_name(const std::string& id) {
  return spec_file_stem(id) + ".result";
}

std::string spec_flight_name(const std::string& id) {
  return spec_file_stem(id) + ".trace.json";
}

void journal_begin(const std::filesystem::path& path) {
  std::string header = "{\"schema\":";
  json::append_string(header, kJournalSchema);
  header += "}\n";
  util::write_file_atomic(path, header);
}

void journal_append(const std::filesystem::path& path,
                    const JournalEntry& entry) {
  std::string line = "{\"spec\":";
  json::append_string(line, entry.spec);
  line += ",\"state\":";
  json::append_string(line, entry.state);
  line += ",\"attempts\":";
  json::append_number(line, entry.attempts);
  if (!entry.artifact.empty()) {
    line += ",\"artifact\":";
    json::append_string(line, entry.artifact);
  }
  if (!entry.error.empty()) {
    line += ",\"error\":";
    json::append_string(line, entry.error);
  }
  line += '}';
  util::append_line_durable(path, line);
}

std::map<std::string, JournalEntry> journal_replay(
    const std::filesystem::path& path) {
  std::map<std::string, JournalEntry> entries;
  const auto buf = util::io::read_file(path);
  if (!buf) return entries;  // no journal yet: nothing to replay
  std::istringstream in(*buf);
  std::string line;
  if (!std::getline(in, line) ||
      json::string_field(line, "schema") != kJournalSchema) {
    throw std::runtime_error("journal " + path.string() +
                             ": missing peerscope.journal/1 header");
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // A torn line (crash mid-append) fails field extraction or the
    // closing-brace check and is skipped; every complete line that
    // follows one is still honoured.
    if (line.back() != '}') continue;
    JournalEntry entry;
    const auto spec = json::string_field(line, "spec");
    const auto state = json::string_field(line, "state");
    const auto attempts = json::number_field(line, "attempts");
    if (!spec || !state || !attempts) continue;
    entry.spec = *spec;
    entry.state = *state;
    entry.attempts = static_cast<int>(*attempts);
    entry.artifact = json::string_field(line, "artifact").value_or("");
    entry.error = json::string_field(line, "error").value_or("");
    entries[entry.spec] = std::move(entry);
  }
  return entries;
}

// ---------------------------------------------------------------------
// RunResult blob: versioned text, integer-exact, atomically written.

void write_run_result(const std::filesystem::path& path,
                      const RunResult& result) {
  const auto& data = result.observations;
  std::ostringstream out;
  out << kResultHeader << '\n';
  out << "app " << data.app << '\n';
  out << "duration_ns " << data.duration.ns() << '\n';
  const auto& c = result.counters;
  out << "counters " << c.chunks_delivered << ' ' << c.chunks_duplicate
      << ' ' << c.chunks_uploaded << ' ' << c.requests_refused << ' '
      << c.contacts << ' ' << c.timeouts << ' ' << c.contact_failures << ' '
      << c.probe_crashes << ' ' << c.chunks_retried << ' '
      << c.partners_blacklisted << '\n';
  // Discovery counters ride in their own optional line so blobs from
  // discovery-free runs stay byte-identical to the pre-discovery
  // format (and old readers that reject unknown keys never see it).
  if (c.discovery.any()) {
    const auto& d = c.discovery;
    out << "dcounters " << d.tracker_queries << ' ' << d.tracker_failures
        << ' ' << d.dht_lookups << ' ' << d.dht_hops << ' '
        << d.dht_hop_timeouts << ' ' << d.dht_evictions << ' '
        << d.gossip_exchanges << ' ' << d.gossip_partitions << ' '
        << d.failovers << ' ' << d.recoveries << ' ' << d.joins_ok << ' '
        << d.join_retries << ' ' << d.nat_direct << ' ' << d.nat_relayed
        << ' ' << d.nat_blocked << ' ' << d.flash_arrivals << '\n';
  }
  for (const auto& probe : data.probes) {
    out << "probe " << probe.addr.bits() << ' ' << probe.as.value() << ' '
        << probe.cc.packed() << ' ' << (probe.high_bw ? 1 : 0) << ' '
        << probe.label << '\n';
  }
  for (std::size_t i = 0; i < data.per_probe.size(); ++i) {
    out << "vantage " << i << ' ' << data.per_probe[i].size() << '\n';
    for (const auto& o : data.per_probe[i]) {
      out << "o " << o.probe.bits() << ' ' << o.remote.bits() << ' '
          << o.probe_as.value() << ' ' << o.remote_as.value() << ' '
          << o.probe_cc.packed() << ' ' << o.remote_cc.packed() << ' '
          << (o.same_subnet ? 1 : 0) << ' ' << (o.remote_is_napa ? 1 : 0)
          << ' ' << o.rx_pkts << ' ' << o.rx_bytes << ' ' << o.tx_pkts
          << ' ' << o.tx_bytes << ' ' << o.rx_video_pkts << ' '
          << o.rx_video_bytes << ' ' << o.tx_video_pkts << ' '
          << o.tx_video_bytes << ' ' << o.min_rx_video_ipg_ns;
      for (const auto ipg : o.smallest_rx_ipgs) out << ' ' << ipg;
      out << ' ' << o.rx_ipg_samples << ' ' << o.rx_hops << '\n';
    }
  }
  // Integrity line: CRC-32C over every byte above it. A torn or
  // bit-rotted blob fails verification on --resume and the run is
  // simply re-executed instead of trusted.
  char crc_line[16];
  std::snprintf(crc_line, sizeof crc_line, "crc %08x\n",
                util::crc32c(out.str()));
  out << crc_line;
  out << "end\n";
  util::write_file_atomic(path, out.str());
}

std::optional<RunResult> read_run_result(const std::filesystem::path& path) {
  const auto buf = util::io::read_file(path);
  if (!buf) return std::nullopt;

  // Verify the integrity line before believing anything else. Blobs
  // from before the crc line was introduced simply lack it and are
  // validated structurally like before.
  if (const std::size_t at = buf->rfind("\ncrc ");
      at != std::string::npos) {
    const std::string_view rest = std::string_view(*buf).substr(at + 5);
    if (rest.size() < 9 || rest.substr(8, 1) != "\n") return std::nullopt;
    std::uint32_t stored = 0;
    for (const char c : rest.substr(0, 8)) {
      const int digit = c >= '0' && c <= '9'   ? c - '0'
                        : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                               : -1;
      if (digit < 0) return std::nullopt;
      stored = stored << 4 | static_cast<std::uint32_t>(digit);
    }
    if (stored != util::crc32c(std::string_view(*buf).substr(0, at + 1))) {
      return std::nullopt;
    }
  }

  std::istringstream in(*buf);
  std::string line;
  if (!std::getline(in, line) || line != kResultHeader) return std::nullopt;

  RunResult result;
  auto& data = result.observations;
  bool complete = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream tokens(line);
    std::string key;
    tokens >> key;
    if (key == "app") {
      tokens >> data.app;
    } else if (key == "duration_ns") {
      std::int64_t ns = -1;
      tokens >> ns;
      if (!tokens || ns < 0) return std::nullopt;
      data.duration = util::SimTime::nanos(ns);
    } else if (key == "counters") {
      auto& c = result.counters;
      tokens >> c.chunks_delivered >> c.chunks_duplicate >>
          c.chunks_uploaded >> c.requests_refused >> c.contacts >>
          c.timeouts >> c.contact_failures >> c.probe_crashes >>
          c.chunks_retried >> c.partners_blacklisted;
      if (!tokens) return std::nullopt;
    } else if (key == "dcounters") {
      auto& d = result.counters.discovery;
      tokens >> d.tracker_queries >> d.tracker_failures >> d.dht_lookups >>
          d.dht_hops >> d.dht_hop_timeouts >> d.dht_evictions >>
          d.gossip_exchanges >> d.gossip_partitions >> d.failovers >>
          d.recoveries >> d.joins_ok >> d.join_retries >> d.nat_direct >>
          d.nat_relayed >> d.nat_blocked >> d.flash_arrivals;
      if (!tokens) return std::nullopt;
    } else if (key == "probe") {
      std::uint32_t addr_bits = 0, as_value = 0;
      std::uint16_t cc_packed = 0;
      int high_bw = 0;
      std::string label;
      tokens >> addr_bits >> as_value >> cc_packed >> high_bw >> label;
      if (!tokens) return std::nullopt;
      data.probes.push_back(
          {net::Ipv4Addr{addr_bits}, net::AsId{as_value},
           net::CountryCode{static_cast<char>(cc_packed >> 8),
                            static_cast<char>(cc_packed & 0xff)},
           high_bw != 0, label});
    } else if (key == "vantage") {
      std::size_t index = 0, count = 0;
      tokens >> index >> count;
      if (!tokens || index != data.per_probe.size()) return std::nullopt;
      std::vector<aware::PairObservation> observations;
      observations.reserve(count);
      for (std::size_t k = 0; k < count; ++k) {
        if (!std::getline(in, line)) return std::nullopt;
        std::istringstream fields(line);
        std::string tag;
        fields >> tag;
        if (tag != "o") return std::nullopt;
        aware::PairObservation o;
        std::uint32_t probe_bits = 0, remote_bits = 0, probe_as = 0,
                      remote_as = 0;
        std::uint16_t probe_cc = 0, remote_cc = 0;
        int same_subnet = 0, napa = 0;
        fields >> probe_bits >> remote_bits >> probe_as >> remote_as >>
            probe_cc >> remote_cc >> same_subnet >> napa >> o.rx_pkts >>
            o.rx_bytes >> o.tx_pkts >> o.tx_bytes >> o.rx_video_pkts >>
            o.rx_video_bytes >> o.tx_video_pkts >> o.tx_video_bytes >>
            o.min_rx_video_ipg_ns;
        for (auto& ipg : o.smallest_rx_ipgs) fields >> ipg;
        fields >> o.rx_ipg_samples >> o.rx_hops;
        if (!fields) return std::nullopt;
        o.probe = net::Ipv4Addr{probe_bits};
        o.remote = net::Ipv4Addr{remote_bits};
        o.probe_as = net::AsId{probe_as};
        o.remote_as = net::AsId{remote_as};
        o.probe_cc =
            net::CountryCode{static_cast<char>(probe_cc >> 8),
                             static_cast<char>(probe_cc & 0xff)};
        o.remote_cc =
            net::CountryCode{static_cast<char>(remote_cc >> 8),
                             static_cast<char>(remote_cc & 0xff)};
        o.same_subnet = same_subnet != 0;
        o.remote_is_napa = napa != 0;
        observations.push_back(o);
      }
      data.per_probe.push_back(std::move(observations));
    } else if (key == "crc") {
      // Already verified against the bytes above; nothing to parse.
    } else if (key == "end") {
      complete = true;
      break;
    } else {
      return std::nullopt;
    }
  }
  if (!complete || data.app.empty() ||
      data.probes.size() != data.per_probe.size()) {
    return std::nullopt;
  }
  return result;
}

}  // namespace peerscope::exp
