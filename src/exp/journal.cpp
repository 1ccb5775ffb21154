#include "exp/journal.hpp"

#include <concepts>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <type_traits>

#include "util/atomic_file.hpp"
#include "util/framing.hpp"
#include "util/io_faults.hpp"
#include "util/json.hpp"

namespace peerscope::exp {

namespace {

namespace json = util::json;

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

// RunResult blob: counter_fields, probe_fields and observation_fields
// each list a frame's fields once, for the writer and the reader alike.

namespace {

constexpr util::framing::FrameFormat kRunResultFormat{
    .magic = kRunResultMagic,
    .version = kRunResultVersion,
};

/// A field's wire form: net types as their integer value, bools as one
/// byte, integers as themselves.
std::uint32_t wire(net::Ipv4Addr addr) { return addr.bits(); }
std::uint32_t wire(net::AsId as) { return as.value(); }
std::uint16_t wire(net::CountryCode cc) { return cc.packed(); }
std::uint8_t wire(bool flag) { return flag; }
template <std::integral T>
T wire(T value) { return value; }

/// Reads fields back from their wire form. A frame too short for its
/// fields, or a bool byte other than 0 or 1, clears `ok`; `rest` is
/// what follows the fields.
struct Get {
  std::string_view rest;
  bool ok = true;

  template <typename T>
  T take() {
    ok = ok && rest.size() >= sizeof(T);
    if (!ok) return T{};
    const char* ptr = rest.data();
    rest.remove_prefix(sizeof(T));
    return util::framing::get<T>(ptr);
  }

  template <typename T>
  void operator()(T& field) {
    const auto value = take<decltype(wire(field))>();
    if constexpr (std::is_same_v<T, bool>) {
      ok = ok && value <= 1;
      field = value != 0;
    } else if constexpr (std::is_same_v<T, net::CountryCode>) {
      field = {static_cast<char>(value >> 8), static_cast<char>(value & 0xff)};
    } else {
      field = T{value};
    }
  }
};

static_assert(sizeof(p2p::Swarm::Counters) == 26 * sizeof(std::uint64_t),
              "every counter needs its slot in counter_fields");

/// The run frame's 26 counters, in declaration order.
template <typename Counters, typename Field>
void counter_fields(Counters& c, Field&& field) {
  auto& d = c.discovery;
  for (auto* counter :
       {&c.chunks_delivered, &c.chunks_duplicate, &c.chunks_uploaded,
        &c.requests_refused, &c.contacts, &c.timeouts, &c.contact_failures,
        &c.probe_crashes, &c.chunks_retried, &c.partners_blacklisted,
        &d.tracker_queries, &d.tracker_failures, &d.dht_lookups, &d.dht_hops,
        &d.dht_hop_timeouts, &d.dht_evictions, &d.gossip_exchanges,
        &d.gossip_partitions, &d.failovers, &d.recoveries, &d.joins_ok,
        &d.join_retries, &d.nat_direct, &d.nat_relayed, &d.nat_blocked,
        &d.flash_arrivals}) {
    field(*counter);
  }
}

/// A probe frame's fields; the label follows them.
template <typename Probe, typename Field>
void probe_fields(Probe& probe, Field&& field) {
  field(probe.addr);
  field(probe.as);
  field(probe.cc);
  field(probe.high_bw);
}

/// An observation frame's fields after its vantage index, in
/// declaration order.
template <typename Observation, typename Field>
void observation_fields(Observation& o, Field&& field) {
  for (auto* addr : {&o.probe, &o.remote}) field(*addr);
  for (auto* as : {&o.probe_as, &o.remote_as}) field(*as);
  for (auto* cc : {&o.probe_cc, &o.remote_cc}) field(*cc);
  for (auto* flag : {&o.same_subnet, &o.remote_is_napa}) field(*flag);
  for (auto* volume : {&o.rx_pkts, &o.rx_bytes, &o.tx_pkts, &o.tx_bytes,
                       &o.rx_video_pkts, &o.rx_video_bytes, &o.tx_video_pkts,
                       &o.tx_video_bytes}) {
    field(*volume);
  }
  field(o.min_rx_video_ipg_ns);
  for (auto& ipg : o.smallest_rx_ipgs) field(ipg);
  field(o.rx_ipg_samples);
  field(o.rx_hops);
}

}  // namespace

void write_run_result(const std::filesystem::path& path,
                      const RunResult& result) {
  const auto& data = result.observations;
  std::uint64_t frames = 1 + data.probes.size();
  for (const auto& observations : data.per_probe) frames += observations.size();
  std::string blob;
  // Read strictly, so no sync markers: they would buy nothing.
  util::framing::FrameEncoder encoder{kRunResultFormat, blob, frames, 0};
  std::string frame;
  const auto field = [&frame](const auto& value) {
    util::framing::put(frame, wire(value));
  };

  field(data.duration.ns());
  counter_fields(result.counters, field);
  field(static_cast<std::uint64_t>(data.probes.size()));
  encoder.append(frame += data.app);
  for (const auto& probe : data.probes) {
    frame.clear();
    probe_fields(probe, field);
    encoder.append(frame += probe.label);
  }
  for (std::size_t i = 0; i < data.per_probe.size(); ++i) {
    for (const auto& o : data.per_probe[i]) {
      frame.clear();
      field(static_cast<std::uint32_t>(i));
      observation_fields(o, field);
      encoder.append(frame);
    }
  }
  util::write_file_atomic(path, blob);
}

std::optional<RunResult> read_run_result(const std::filesystem::path& path) {
  const auto buf = util::io::read_file(path);
  if (!buf) return std::nullopt;
  std::vector<std::string_view> frames;
  const util::framing::FrameVisitor collect{
      .header = [&frames](const auto& h) { frames.reserve(h.capacity); },
      .payload =
          [&frames](std::string_view frame) {
            frames.push_back(frame);
            return true;
          },
  };
  try {
    util::framing::decode_frames(kRunResultFormat, *buf, collect,
                                 path.string());
  } catch (const std::runtime_error&) {
    return std::nullopt;  // torn, bit-rotted, foreign or an old text blob
  }
  if (frames.empty()) return std::nullopt;

  RunResult result;
  auto& data = result.observations;
  Get run{frames[0]};
  const auto ns = run.take<std::int64_t>();
  counter_fields(result.counters, run);
  const auto probes = run.take<std::uint64_t>();
  // Every probe has a frame of its own, so the count is bounded by the
  // frames decoded, never by what the frame claims.
  if (!run.ok || ns < 0 || run.rest.empty() || probes >= frames.size()) {
    return std::nullopt;
  }
  data.app = run.rest;
  data.duration = util::SimTime::nanos(ns);
  data.probes.resize(probes);
  data.per_probe.resize(probes);
  for (std::size_t i = 0; i < probes; ++i) {
    Get field{frames[1 + i]};
    probe_fields(data.probes[i], field);
    if (!field.ok) return std::nullopt;
    data.probes[i].label = field.rest;
  }
  for (std::size_t i = 1 + probes; i < frames.size(); ++i) {
    Get field{frames[i]};
    const auto vantage = field.take<std::uint32_t>();
    aware::PairObservation o;
    observation_fields(o, field);
    if (!field.ok || !field.rest.empty() || vantage >= probes) {
      return std::nullopt;
    }
    data.per_probe[vantage].push_back(o);
  }
  return result;
}

}  // namespace peerscope::exp
