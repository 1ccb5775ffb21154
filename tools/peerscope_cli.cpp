// peerscope — command-line front end.
//
//   peerscope --help | -h
//       Print the usage text on stdout and exit 0.
//   peerscope testbed
//       Print the Table I testbed and its host/site/AS counts.
//   peerscope run --app <name> [--seed N] [--duration S] --out DIR
//                 [--pcap] [--csv] [supervision flags] [fault flags]
//       Run one experiment, store per-probe PSBT traces (per-record
//       CRC-32C + sync markers, DESIGN.md §15) plus the experiment
//       metadata sidecar needed for offline analysis. Injected faults
//       are recorded in the sidecar. The run is supervised: failures
//       are retried per --retries, --deadline cuts off an overlong
//       simulation, and completion is journaled in
//       DIR/experiment.journal so --resume skips an already-finished
//       run after a crash.
//   peerscope analyze DIR [--salvage]
//       Reload stored traces + metadata and print the full analysis
//       (summary, self-bias, awareness table, Figure 2 AS x AS matrix)
//       — the paper's pipeline applied to on-disk captures. --salvage
//       recovers what it can from corrupt/truncated traces instead of
//       aborting. A missing, empty, or un-analyzable capture
//       directory exits with code 6.
//   peerscope report --app <name> [--seed N] [--duration S]
//                    [supervision flags] [fault flags]
//       Run and analyse in one step without storing traces.
//   peerscope reproduce [--out FILE] [--seed N] [--duration S]
//                       [supervision flags]
//       Rerun every experiment and write a markdown report with
//       paper-vs-measured rows for all tables and figures. Supervised:
//       an application that fails or times out is marked in the report
//       instead of aborting the batch, and the process exits 5
//       (partial success). The journal lands next to the report file;
//       --resume skips finished applications and the resumed report is
//       byte-identical to an uninterrupted one. After a complete batch
//       the paper's claims (aware/claims.hpp) are checked: one stderr
//       summary line, plus a line per claim off its expected verdict.
//
// Supervision flags (run/report/reproduce; all default to off):
//   --retries N       extra attempts after a failed run (not after a
//                     deadline timeout), exponential backoff + jitter
//   --deadline S      per-attempt wall-clock deadline in seconds,
//                     enforced cooperatively between simulation events
//   --resume          replay the journal; skip runs whose results are
//                     already durably recorded (run/reproduce only)
//
// Fault flags (run/report; all default to off):
//   --loss P          per-packet loss probability (0..1)
//   --loss-burst N    mean loss burst length in packets (Gilbert–Elliott)
//   --reorder P       capture reordering probability
//   --dup P           capture duplication probability
//   --outage R        transient link outages per second (per receiver)
//   --outage-ms MS    outage duration
//   --churn S         mean probe online session (s); probes crash/rejoin
//   --bg-churn S      mean background-peer online session (s)
//   --nat-fail P      P(contact to NAT'd/firewalled peer fails)
//
// Discovery flags (run/report; all default to off — the legacy inline
// tracker path stays byte-identical without them):
//   --discovery B         primary backend: tracker | dht | gossip
//   --fallback B          failover backend after consecutive primary
//                         failures (requires --discovery)
//   --tracker-outage-at S tracker hard-outage start (s into the run)
//   --tracker-outage-for S  tracker hard-outage duration (s)
//   --rejoin-deadline S   re-join SLO: any probe whose discovery
//                         re-join exceeds S seconds degrades the run
//                         to exit code 8 (flight recorder dumped)
//   --nat-matrix F        arm the NAT traversal matrix; F = fraction
//                         of NAT'd peers that are symmetric (0..1)
//   --flash-crowd N       channel-zap flash crowd of N arrivals
//   --flash-crowd-at S    flash-crowd instant (default 1/3 into run)
//   --zap-reuse P         known-peer fraction kept across the zap
//   --session-tail A      Pareto shape for heavy-tailed sessions
//                         (> 1 arms it; 0 keeps exponential draws)
//
// Apps: pplive | sopcast | tvants | pplive-popular | napawine-proto
//
// Global flags (any command):
//   --metrics PATH    write the observability sidecar (metrics.json) to
//                     PATH at exit; e.g. `--metrics traces/metrics.json`
//                     next to experiment.meta. Without the flag no
//                     registry is installed and instrumentation is
//                     no-op (DESIGN.md §9).
//   --trace PATH      record a structured event timeline and write it
//                     as Chrome-trace-compatible trace.json at exit
//                     (schema peerscope.trace/1, DESIGN.md §12); read
//                     it with `peerscope trace-summary`, about:tracing,
//                     or ui.perfetto.dev. Without the flag no recorder
//                     is installed and the hooks are no-op.
//   --io-faults SPEC  install a deterministic storage fault schedule
//                     (DESIGN.md §15 grammar, e.g.
//                     "enospc@4096:trace.bin,fsync-fail#2"); every
//                     file peerscope reads or writes routes through
//                     the injectable shim. Also via env
//                     PEERSCOPE_IO_FAULTS (flag wins). A malformed
//                     schedule exits 4.
//   --io-faults-seed N  seed for fault offsets the schedule leaves
//                     unset (env PEERSCOPE_IO_FAULTS_SEED).
//
// trace-summary: `peerscope trace-summary PATH [--top N]
// [--deterministic]` profiles a trace.json — per-span-path self/total
// wall time, sorted by self time ("--top N" rows, default 20), plus a
// counter-event section (totals and last values per counter name);
// --deterministic prints the canonical reproducible rendering
// instead (what CI diffs across fixed-seed runs).
//
// watch: `peerscope watch STATUS.json [--once] [--interval-ms N]`
// tails the atomically-rewritten status file a supervised run
// publishes via --watch-status: per-run supervisor state, attempts,
// events/s, sim time, and ETA. Re-renders until the batch phase turns
// "done" (--once prints a single snapshot). Reads are torn-free
// because every status rewrite is an atomic rename.
//
// timeline: `peerscope timeline SERIES.psts [--csv] [--deterministic]
// [--salvage]` renders a PSTS time-series sidecar (written via the
// global --series flag) as markdown (default), long-form CSV, or the
// canonical deterministic rendering CI diffs across pool sizes.
// --salvage recovers every interval outside damaged regions instead
// of aborting on a corrupt file (exit 7).
//
// Supervised runs accept declarative SLOs (DESIGN.md §17): an
// events/s floor (--slo-events-floor), a sim-time stall window
// (--slo-stall), and a discovery rejoin-latency p99 ceiling
// (--slo-rejoin-p99-ms). A watchdog thread polls live progress and a
// sustained violation cancels the run, dumps the flight recorder
// (journaled runs), and exits 10.
//
// Exit codes: 0 success, 1 runtime error, 2 usage error,
//             3 unknown application, 4 invalid flag value (including
//               an integer flag that is not a whole integer),
//             5 partial success (some supervised runs produced no
//               result; the report marks them), 6 bad capture
//               directory (analyze), 7 bad trace file
//               (trace-summary: unreadable, wrong schema, or no
//               salvageable events), 8 degraded (the run completed
//               but a discovery re-join missed --rejoin-deadline),
//             10 SLO violation (the watchdog cancelled a supervised
//               run).

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "aware/observation.hpp"
#include "aware/report.hpp"
#include "exp/capture.hpp"
#include "exp/metadata.hpp"
#include "exp/runner.hpp"
#include "exp/supervisor.hpp"
#include "exp/testbed.hpp"
#include "net/topology.hpp"
#include "exp/journal.hpp"
#include "exp/status.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/trace_summary.hpp"
#include "obs/watchdog.hpp"
#include "p2p/swarm.hpp"
#include "tools/reproduce.hpp"
#include "trace/binary_format.hpp"
#include "trace/io.hpp"
#include "trace/pcap.hpp"
#include "util/io_faults.hpp"
#include "util/salvage.hpp"
#include "util/table.hpp"

using namespace peerscope;

namespace {

// Exit codes (documented in the header comment): every argument-error
// path prints the usage text and returns a distinct nonzero code so
// scripts can tell "you typed it wrong" (2) from "no such app" (3)
// from "value out of range" (4); 1 is reserved for runtime failures.
constexpr int kExitUsage = 2;
constexpr int kExitUnknownApp = 3;
constexpr int kExitBadValue = 4;
constexpr int kExitPartial = tools::kExitPartialSuccess;  // 5
constexpr int kExitBadCapture = 6;
constexpr int kExitBadTrace = 7;
// A run that finished the simulation but missed its discovery re-join
// SLO (exp::DiscoveryDegraded): distinct from 1 so the CI outage smoke
// can tell "degraded as designed" from a genuine crash.
constexpr int kExitDegraded = 8;
// The SLO watchdog cancelled a run after a sustained violation of a
// declared objective (events/s floor, sim-time stall, rejoin p99
// ceiling): distinct from 1 and from 8 so the CI watch smoke can
// assert "the watchdog fired" rather than "something crashed".
constexpr int kExitSloViolation = 10;

int usage(int code = kExitUsage) {
  // --help asked for the text: stdout and exit 0. Every other caller
  // is reporting a mistake.
  (code == 0 ? std::cout : std::cerr) <<
      R"(usage:
  peerscope --help | -h
  peerscope testbed
  peerscope run --app <name> [--seed N] [--duration S] --out DIR [--pcap] [--csv] [supervision] [fault flags]
  peerscope analyze DIR [--salvage]
  peerscope report --app <name> [--seed N] [--duration S] [supervision] [fault flags]
  peerscope reproduce [--out FILE] [--seed N] [--duration S] [supervision]
  peerscope trace-summary PATH [--top N] [--deterministic]
  peerscope watch STATUS.json [--once] [--interval-ms N]
  peerscope timeline SERIES.psts [--csv] [--deterministic] [--salvage]

supervision: --retries N  --deadline S  --resume
             --watch-status PATH  (publish live status.json for `watch`)
             --slo-events-floor X  --slo-stall S  --slo-rejoin-p99-ms M
             (declarative SLOs; sustained violation cancels -> exit 10)
fault flags: --loss P  --loss-burst N  --reorder P  --dup P
             --outage R  --outage-ms MS  --churn S  --bg-churn S  --nat-fail P
discovery:   --discovery <tracker|dht|gossip>  --fallback <tracker|dht|gossip>
             --tracker-outage-at S  --tracker-outage-for S
             --rejoin-deadline S  --nat-matrix F  --flash-crowd N
             --flash-crowd-at S  --zap-reuse P  --session-tail A
global flags: --metrics PATH   (write metrics.json sidecar at exit)
              --trace PATH     (write trace.json event timeline at exit)
              --series PATH    (write the PSTS time-series sidecar at
                                exit; read it with `peerscope timeline`)
              --series-interval S  (sampling grid in sim seconds,
                                default 10; requires --series)
              --io-faults SPEC [--io-faults-seed N]
                               (inject storage faults, DESIGN.md §15)

exit codes: 0 ok, 1 runtime error, 2 usage, 3 unknown app, 4 bad value,
            5 partial success, 6 bad capture directory, 7 bad trace file,
            8 degraded (discovery re-join missed --rejoin-deadline),
            10 SLO violation (watchdog cancelled a supervised run)

apps: pplive | sopcast | tvants | pplive-popular | napawine-proto
)";
  return code;
}

std::optional<p2p::SystemProfile> profile_by_name(const std::string& name) {
  if (name == "pplive") return p2p::SystemProfile::pplive();
  if (name == "sopcast") return p2p::SystemProfile::sopcast();
  if (name == "tvants") return p2p::SystemProfile::tvants();
  if (name == "pplive-popular") return p2p::SystemProfile::pplive_popular();
  if (name == "napawine-proto") {
    return p2p::SystemProfile::napawine_prototype();
  }
  return std::nullopt;
}

struct RunArgs {
  p2p::SystemProfile profile;
  std::uint64_t seed = 42;
  std::int64_t duration_s = 120;
  std::filesystem::path out;
  bool pcap = false;
  bool csv = false;
  int retries = 0;
  double deadline_s = 0.0;
  bool resume = false;
  // Declarative SLOs + live status publishing (DESIGN.md §17).
  obs::SloSpec slo;
  std::filesystem::path status_path;
  sim::ImpairmentSpec impairment;
  p2p::ChurnSpec churn;
  p2p::DiscoverySpec discovery;
};

/// --seed takes any 64-bit value; --duration at most what
/// util::SimTime::seconds can represent.
constexpr std::uint64_t kMaxSeed = std::numeric_limits<std::uint64_t>::max();
constexpr auto kMaxDurationS =
    static_cast<std::uint64_t>(util::SimTime::max().ns() / 1'000'000'000);

/// Strict integer parse for every integer flag (--seed, --duration,
/// --retries, --flash-crowd, --top, --interval-ms, --io-faults-seed):
/// the whole token must be base-10 digits with a value in [lo, hi].
/// Otherwise prints the diagnostic and returns nullopt (-> exit 4), so
/// `--seed banana` cannot silently become seed 0, `--duration 5x` a
/// 5 s run, nor `--flash-crowd 2.5` two arrivals.
std::optional<std::uint64_t> parse_integer(std::string_view flag,
                                           const char* text, std::uint64_t lo,
                                           std::uint64_t hi) {
  const char* last = text + std::strlen(text);
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text, last, v);
  if (ec == std::errc{} && end == last && v >= lo && v <= hi) return v;
  std::cerr << "invalid value for " << flag << ": " << text << '\n';
  return std::nullopt;
}

/// Strict numeric parse: the whole token must be a number in
/// [lo, hi]. nullopt (-> exit 4) otherwise — a mistyped probability
/// must not silently become 0.
std::optional<double> parse_double(const char* text, double lo, double hi) {
  if (!text || !*text) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || v < lo || v > hi) return std::nullopt;
  return v;
}

util::SimTime seconds_to_simtime(double s) {
  return util::SimTime::nanos(static_cast<std::int64_t>(s * 1e9));
}

/// Parses run/report arguments. On failure returns nullopt with `err`
/// set to the exit code the caller should pass to usage().
std::optional<RunArgs> parse_run_args(int argc, char** argv, int first,
                                      int& err) {
  RunArgs args;
  bool have_app = false;
  err = kExitUsage;
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Numeric fault knobs share one code path: flag -> (target, range).
    auto numeric = [&](double lo, double hi,
                       double& target) -> bool {
      const char* v = value();
      if (!v) {
        std::cerr << flag << " needs a value\n";
        err = kExitUsage;
        return false;
      }
      const auto parsed = parse_double(v, lo, hi);
      if (!parsed) {
        std::cerr << "invalid value for " << flag << ": " << v << '\n';
        err = kExitBadValue;
        return false;
      }
      target = *parsed;
      return true;
    };
    // Integer knobs: the same contract through parse_integer.
    auto integer = [&](std::uint64_t lo,
                       std::uint64_t hi) -> std::optional<std::uint64_t> {
      const char* v = value();
      if (!v) {
        std::cerr << flag << " needs a value\n";
        err = kExitUsage;
        return std::nullopt;
      }
      const auto parsed = parse_integer(flag, v, lo, hi);
      if (!parsed) err = kExitBadValue;
      return parsed;
    };
    if (flag == "--app") {
      const char* name = value();
      if (!name) {
        std::cerr << "--app needs a value\n";
        return std::nullopt;
      }
      const auto profile = profile_by_name(name);
      if (!profile) {
        std::cerr << "unknown app: " << name << '\n';
        err = kExitUnknownApp;
        return std::nullopt;
      }
      args.profile = *profile;
      have_app = true;
    } else if (flag == "--seed") {
      const auto parsed = integer(0, kMaxSeed);
      if (!parsed) return std::nullopt;
      args.seed = *parsed;
    } else if (flag == "--duration") {
      const auto parsed = integer(1, kMaxDurationS);
      if (!parsed) return std::nullopt;
      args.duration_s = static_cast<std::int64_t>(*parsed);
    } else if (flag == "--out") {
      const char* v = value();
      if (!v) {
        std::cerr << "--out needs a value\n";
        return std::nullopt;
      }
      args.out = v;
    } else if (flag == "--pcap") {
      args.pcap = true;
    } else if (flag == "--csv") {
      args.csv = true;
    } else if (flag == "--retries") {
      const auto parsed = integer(0, 100);
      if (!parsed) return std::nullopt;
      args.retries = static_cast<int>(*parsed);
    } else if (flag == "--deadline") {
      double s = 0;
      if (!numeric(0.0, 86'400.0, s)) return std::nullopt;
      args.deadline_s = s;
    } else if (flag == "--resume") {
      args.resume = true;
    } else if (flag == "--watch-status") {
      const char* v = value();
      if (!v) {
        std::cerr << "--watch-status needs a value\n";
        return std::nullopt;
      }
      args.status_path = v;
    } else if (flag == "--slo-events-floor") {
      if (!numeric(0.0, 1e18, args.slo.events_per_s_floor)) {
        return std::nullopt;
      }
    } else if (flag == "--slo-stall") {
      if (!numeric(0.0, 86'400.0, args.slo.stall_window_s)) {
        return std::nullopt;
      }
    } else if (flag == "--slo-rejoin-p99-ms") {
      double ms = 0;
      if (!numeric(0.0, 1e9, ms)) return std::nullopt;
      args.slo.rejoin_p99_ceiling_ns = static_cast<std::int64_t>(ms * 1e6);
    } else if (flag == "--loss") {
      if (!numeric(0.0, 0.95, args.impairment.loss_rate)) return std::nullopt;
    } else if (flag == "--loss-burst") {
      if (!numeric(1.0, 1e6, args.impairment.loss_burst)) return std::nullopt;
    } else if (flag == "--reorder") {
      if (!numeric(0.0, 1.0, args.impairment.reorder_rate)) {
        return std::nullopt;
      }
    } else if (flag == "--dup") {
      if (!numeric(0.0, 1.0, args.impairment.duplicate_rate)) {
        return std::nullopt;
      }
    } else if (flag == "--outage") {
      if (!numeric(0.0, 1e3, args.impairment.outage_per_s)) {
        return std::nullopt;
      }
    } else if (flag == "--outage-ms") {
      double ms = 0;
      if (!numeric(0.0, 60'000.0, ms)) return std::nullopt;
      args.impairment.outage_duration =
          util::SimTime::nanos(static_cast<std::int64_t>(ms * 1e6));
    } else if (flag == "--churn") {
      if (!numeric(0.0, 1e9, args.churn.probe_session_s)) return std::nullopt;
    } else if (flag == "--bg-churn") {
      if (!numeric(0.0, 1e9, args.churn.bg_session_s)) return std::nullopt;
    } else if (flag == "--nat-fail") {
      double p = 0;
      if (!numeric(0.0, 1.0, p)) return std::nullopt;
      args.churn.nat_connect_failure = p;
      args.churn.firewall_connect_failure = p;
    } else if (flag == "--discovery" || flag == "--fallback") {
      const char* name = value();
      if (!name) {
        std::cerr << flag << " needs a value\n";
        return std::nullopt;
      }
      const auto kind = p2p::parse_backend_kind(name);
      if (!kind) {
        std::cerr << "invalid value for " << flag << ": " << name
                  << " (expected tracker | dht | gossip)\n";
        err = kExitBadValue;
        return std::nullopt;
      }
      (flag == "--discovery" ? args.discovery.primary
                             : args.discovery.fallback) = *kind;
    } else if (flag == "--tracker-outage-at") {
      double s = 0;
      if (!numeric(0.0, 1e6, s)) return std::nullopt;
      args.discovery.tracker_outage_start = seconds_to_simtime(s);
    } else if (flag == "--tracker-outage-for") {
      double s = 0;
      if (!numeric(0.0, 1e6, s)) return std::nullopt;
      args.discovery.tracker_outage_duration = seconds_to_simtime(s);
    } else if (flag == "--rejoin-deadline") {
      double s = 0;
      if (!numeric(0.0, 1e6, s)) return std::nullopt;
      args.discovery.rejoin_deadline = seconds_to_simtime(s);
    } else if (flag == "--nat-matrix") {
      double f = 0;
      if (!numeric(0.0, 1.0, f)) return std::nullopt;
      args.discovery.nat.enabled = true;
      args.discovery.nat.symmetric_fraction = f;
    } else if (flag == "--flash-crowd") {
      const auto n = integer(1, 1'000'000);
      if (!n) return std::nullopt;
      args.discovery.flash_crowd_arrivals = static_cast<int>(*n);
    } else if (flag == "--flash-crowd-at") {
      double s = 0;
      if (!numeric(0.0, 1e6, s)) return std::nullopt;
      args.discovery.flash_crowd_at = seconds_to_simtime(s);
    } else if (flag == "--zap-reuse") {
      if (!numeric(0.0, 1.0, args.discovery.zap_reuse)) return std::nullopt;
    } else if (flag == "--session-tail") {
      if (!numeric(0.0, 50.0, args.discovery.session_tail_alpha)) {
        return std::nullopt;
      }
    } else {
      std::cerr << "unknown flag: " << flag << '\n';
      return std::nullopt;
    }
  }
  if (!have_app) {
    std::cerr << "--app is required\n";
    return std::nullopt;
  }
  if (args.discovery.fallback != p2p::DiscoveryBackendKind::kNone &&
      args.discovery.primary == p2p::DiscoveryBackendKind::kNone) {
    std::cerr << "--fallback requires --discovery\n";
    return std::nullopt;
  }
  if (args.discovery.flash_crowd_arrivals > 0 &&
      args.discovery.flash_crowd_at <= util::SimTime::zero()) {
    // Default zap instant: a third into the run — late enough for
    // every probe to be bootstrapped, early enough to observe the
    // re-join settle.
    args.discovery.flash_crowd_at =
        util::SimTime::seconds(args.duration_s / 3);
  }
  return args;
}

void print_analysis(const aware::ExperimentObservations& data) {
  const auto summary = aware::summarize(data);
  util::TextTable overview{{"metric", "mean", "max"}};
  overview.add_row({"stream RX [kbps]",
                    util::TextTable::num(summary.rx_kbps_mean, 0),
                    util::TextTable::num(summary.rx_kbps_max, 0)});
  overview.add_row({"stream TX [kbps]",
                    util::TextTable::num(summary.tx_kbps_mean, 0),
                    util::TextTable::num(summary.tx_kbps_max, 0)});
  overview.add_row({"peers / probe",
                    util::TextTable::num(summary.all_peers_mean, 0),
                    util::TextTable::count(summary.all_peers_max)});
  overview.add_row({"RX contributors / probe",
                    util::TextTable::num(summary.contrib_rx_mean, 0),
                    util::TextTable::count(summary.contrib_rx_max)});
  overview.add_row({"TX contributors / probe",
                    util::TextTable::num(summary.contrib_tx_mean, 0),
                    util::TextTable::count(summary.contrib_tx_max)});
  overview.add_row(
      {"observed peers", util::TextTable::count(summary.observed_total), ""});
  std::cout << '\n' << data.app << " overview:\n" << overview.render();

  const auto bias = aware::self_bias(data);
  std::cout << "\nself-induced bias (contributors): peers "
            << util::TextTable::num(bias.contributors_peer_pct) << "%, bytes "
            << util::TextTable::num(bias.contributors_bytes_pct) << "%\n";

  const auto rows = aware::awareness_table(data);
  util::TextTable awareness{
      {"net", "B'D%", "P'D%", "BD%", "PD%", "B'U%", "P'U%", "BU%", "PU%"}};
  const auto cell = [](const std::optional<double>& v) {
    return v ? util::TextTable::num(*v) : std::string{"-"};
  };
  for (const auto& row : rows) {
    awareness.add_row({aware::to_string(row.metric),
                       cell(row.download.b_prime_pct),
                       cell(row.download.p_prime_pct),
                       cell(row.download.b_pct), cell(row.download.p_pct),
                       cell(row.upload.b_prime_pct),
                       cell(row.upload.p_prime_pct), cell(row.upload.b_pct),
                       cell(row.upload.p_pct)});
  }
  std::cout << "\nnetwork awareness:\n" << awareness.render();

  // Figure 2: mean kB a high-bw probe sent to one in each AS, with the
  // intra-AS diagonal bracketed.
  const auto matrix = aware::as_traffic_matrix(data);
  std::vector<std::string> header{data.app + " [kB]"};
  for (const auto as : matrix.ases) header.push_back("to " + as.to_string());
  util::TextTable exchanged{header};
  for (std::size_t i = 0; i < matrix.ases.size(); ++i) {
    std::vector<std::string> row{"from " + matrix.ases[i].to_string()};
    for (std::size_t j = 0; j < matrix.ases.size(); ++j) {
      const std::string kb = util::TextTable::num(matrix.at(i, j) / 1e3, 0);
      row.push_back(i == j ? "[" + kb + "]" : kb);
    }
    exchanged.add_row(std::move(row));
  }
  std::cout << "\nmean exchanged data among high-bw probes:\n"
            << exchanged.render()
            << "R (intra/inter, same-subnet pairs excluded as in §IV-B) = "
            << util::TextTable::num(matrix.intra_inter_ratio, 2)
            << "   [including LAN pairs: "
            << util::TextTable::num(matrix.intra_inter_ratio_with_lan, 2)
            << "]\n";
}

int cmd_testbed() {
  const net::AsTopology topo = net::make_reference_topology();
  const exp::Testbed testbed = exp::Testbed::table1();
  util::TextTable table{{"Host", "Site", "CC", "AS", "Access", "Nat", "FW"}};
  for (const auto& row : testbed.rows(topo)) {
    table.add_row({row.hosts, row.site, row.country, row.as_label,
                   row.access, row.nat ? "Y" : "-",
                   row.firewall ? "Y" : "-"});
  }
  std::cout << table.render();

  std::cout << "\nsummary: " << testbed.host_count() << " hosts, "
            << testbed.site_count() << " sites, "
            << testbed.institution_as_count() << " institution ASes, "
            << testbed.home_as_count() << " home-ISP ASes, "
            << testbed.home_host_count() << " home hosts\n";
  std::cout << "(paper text reports 44 peers / 37 institution PCs / 7 home "
               "PCs; the printed\n table enumerates 46 hosts — we reproduce "
               "the table as published.)\n";
  return 0;
}

void print_fault_counters(const p2p::Swarm::Counters& counters) {
  std::cerr << "faults: " << counters.timeouts << " timeouts, "
            << counters.chunks_retried << " retries, "
            << counters.contact_failures << " failed contacts, "
            << counters.probe_crashes << " probe crashes, "
            << counters.partners_blacklisted << " partners blacklisted\n";
}

void print_discovery_counters(const p2p::DiscoveryCounters& d) {
  std::cerr << "discovery: " << d.joins_ok << " joins, " << d.join_retries
            << " retries, " << d.failovers << " failovers, " << d.recoveries
            << " recoveries, " << d.tracker_failures
            << " tracker failures, " << d.dht_lookups << " DHT lookups, "
            << d.gossip_exchanges << " gossip exchanges\n";
  if (d.nat_direct + d.nat_relayed + d.nat_blocked > 0) {
    std::cerr << "nat: " << d.nat_direct << " direct, " << d.nat_relayed
              << " relayed, " << d.nat_blocked << " blocked\n";
  }
}

/// Maps a supervised failure to the CLI exit code: a run the SLO
/// watchdog cancelled (the supervisor's "slo violation: ..." prefix)
/// is 10, a run that finished but missed its re-join SLO
/// (exp::DiscoveryDegraded's message prefix) is "degraded" (8),
/// anything else is a runtime error (1).
int failure_exit_code(const std::string& error) {
  if (error.rfind("slo violation", 0) == 0) return kExitSloViolation;
  return error.rfind("discovery degraded", 0) == 0 ? kExitDegraded : 1;
}

int cmd_run(const RunArgs& args) {
  if (args.out.empty()) {
    std::cerr << "--out is required for run\n";
    return usage(kExitUsage);
  }
  std::filesystem::create_directories(args.out);

  const net::AsTopology topo = net::make_reference_topology();
  const exp::Testbed testbed = exp::Testbed::table1();

  exp::RunSpec spec;
  spec.profile = args.profile;
  spec.seed = args.seed;
  spec.duration = util::SimTime::seconds(args.duration_s);
  spec.keep_records = true;
  spec.impairment = args.impairment;
  spec.churn = args.churn;
  spec.discovery = args.discovery;

  exp::SupervisorConfig supervision;
  supervision.retries = args.retries;
  supervision.deadline_s = args.deadline_s;
  supervision.resume = args.resume;
  supervision.journal = args.out / "experiment.journal";
  supervision.slo = args.slo;
  supervision.status_path = args.status_path;
  // Capture-producing run body: each attempt simulates, exports every
  // trace atomically, then writes the metadata sidecar last — so a
  // directory containing experiment.meta is always analyzable. The
  // returned RunResult lands in the journal blob, which is what lets
  // --resume skip a finished run outright.
  supervision.run_fn = [&args, &testbed](const net::AsTopology& t,
                                         const exp::RunSpec& s) {
    p2p::SwarmConfig config;
    config.profile = s.profile;
    config.seed = s.seed;
    config.duration = s.duration;
    config.keep_records = true;
    config.impairment = s.impairment;
    config.churn = s.churn;
    config.discovery = s.discovery;
    config.cancel = s.cancel;
    // Mirror run_experiment: series rows key on the stable journal
    // identity, and the progress sink is live only while the swarm
    // may still advance it (the watchdog must not judge a dead
    // attempt's frozen counters).
    config.series_key = exp::spec_id(s);
    config.progress = s.progress;
    struct ProgressGuard {
      obs::RunProgress* progress;
      explicit ProgressGuard(obs::RunProgress* p) : progress(p) {
        if (progress != nullptr) {
          progress->active.store(true, std::memory_order_release);
        }
      }
      ~ProgressGuard() {
        if (progress != nullptr) {
          progress->active.store(false, std::memory_order_release);
        }
      }
    } progress_guard{s.progress};

    p2p::Swarm swarm{t, testbed.probes(), config};
    swarm.run();
    if (s.discovery.rejoin_deadline > util::SimTime::zero()) {
      const auto report = swarm.discovery_report();
      if (report.rejoins_missed > 0) {
        throw exp::DiscoveryDegraded(report.rejoins_missed);
      }
    }

    const auto& population = swarm.population();
    exp::ExperimentMetadata meta;
    meta.app = config.profile.name;
    meta.duration = config.duration;
    meta.announcements = population.registry().dump();
    meta.impairment = s.impairment;
    meta.churn = s.churn;

    std::uint64_t packets = 0;
    for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
      const auto& info = population.peer(population.probe_ids()[i]);
      const auto label = population.probe_specs()[i].label();
      meta.probes.push_back({info.ep.addr, info.ep.as, info.ep.country,
                             info.access.is_high_bandwidth(), label});
      auto records = swarm.sink(i).records();
      std::sort(records.begin(), records.end(), trace::record_before);
      trace::write_trace_binary(
          args.out / exp::ExperimentMetadata::trace_filename(label),
          swarm.sink(i).probe(), records);
      if (args.pcap) {
        trace::write_pcap(args.out / (label + ".pcap"),
                          swarm.sink(i).probe(), records);
      }
      if (args.csv) {
        trace::write_trace_csv(args.out / (label + ".csv"),
                               swarm.sink(i).probe(), records);
      }
      packets += records.size();
    }
    write_metadata(args.out / "experiment.meta", meta);
    std::cerr << "wrote " << swarm.probe_count() << " traces ("
              << util::TextTable::count(packets)
              << " packets) + metadata to " << args.out << '\n';

    exp::RunResult result;
    result.observations = exp::extract_observations(swarm);
    result.counters = swarm.counters();
    return result;
  };

  std::cerr << "running " << args.profile.name << " (seed " << args.seed
            << ", " << args.duration_s << " s)...\n";
  util::ThreadPool pool{1};
  const auto outcome = exp::supervise_runs(
      topo, std::span<const exp::RunSpec>{&spec, 1}, pool, supervision);
  const auto& run = outcome.runs.front();
  if (run.state == exp::RunState::kSkipped) {
    std::cerr << "resume: " << run.spec
              << " already complete, nothing to do\n";
    return 0;
  }
  if (!run.ok()) {
    std::cerr << "run " << exp::to_string(run.state) << " after "
              << run.attempts << " attempt(s): " << run.error << '\n';
    return failure_exit_code(run.error);
  }
  if (run.attempts > 1) {
    std::cerr << "run succeeded on attempt " << run.attempts << '\n';
  }
  if (args.impairment.enabled() || args.churn.enabled()) {
    print_fault_counters(run.result->counters);
  }
  if (args.discovery.enabled()) {
    print_discovery_counters(run.result->counters.discovery);
  }
  return 0;
}

int cmd_analyze(const std::filesystem::path& dir, bool salvage) {
  exp::CaptureLoad load;
  try {
    load = exp::load_capture(dir, salvage);
  } catch (const exp::CaptureError& error) {
    // Every "this is not an analyzable capture" condition lands here:
    // distinct exit code so scripts can tell a bad directory (6) from
    // a genuine runtime failure (1).
    std::cerr << "analyze: " << error.what() << '\n';
    return kExitBadCapture;
  }
  for (const auto& note : load.notes) std::cerr << note << '\n';
  if (salvage && !load.clean()) {
    std::cerr << "salvage: analysis continues on the recovered records\n";
  }
  print_analysis(load.data);
  return 0;
}

int cmd_report(const RunArgs& args) {
  const net::AsTopology topo = net::make_reference_topology();
  exp::RunSpec spec;
  spec.profile = args.profile;
  spec.seed = args.seed;
  spec.duration = util::SimTime::seconds(args.duration_s);
  spec.impairment = args.impairment;
  spec.churn = args.churn;
  spec.discovery = args.discovery;
  std::cerr << "running " << spec.profile.name << " (seed " << args.seed
            << ", " << args.duration_s << " s)...\n";

  // Supervised but unjournaled: report stores nothing, so there is
  // nothing to resume — but --retries/--deadline/SLOs still apply.
  exp::SupervisorConfig supervision;
  supervision.retries = args.retries;
  supervision.deadline_s = args.deadline_s;
  supervision.slo = args.slo;
  supervision.status_path = args.status_path;
  util::ThreadPool pool{1};
  const auto outcome = exp::supervise_runs(
      topo, std::span<const exp::RunSpec>{&spec, 1}, pool, supervision);
  const auto& run = outcome.runs.front();
  if (!run.ok()) {
    std::cerr << "run " << exp::to_string(run.state) << " after "
              << run.attempts << " attempt(s): " << run.error << '\n';
    return failure_exit_code(run.error);
  }
  print_analysis(run.result->observations);
  if (args.impairment.enabled() || args.churn.enabled()) {
    print_fault_counters(run.result->counters);
  }
  if (args.discovery.enabled()) {
    print_discovery_counters(run.result->counters.discovery);
  }
  return 0;
}

// Profiles a trace.json written by --trace:
// per-span-path self/total wall-time attribution, hottest first. Torn
// lines are salvaged with a note; an unreadable file, a foreign
// schema, or a trace with nothing salvageable is kExitBadTrace.
int cmd_trace_summary(const std::filesystem::path& path, std::size_t top_n,
                      bool deterministic) {
  obs::TraceFile file;
  try {
    file = obs::read_trace_file(path);
  } catch (const std::exception& error) {
    std::cerr << "trace-summary: " << error.what() << '\n';
    return kExitBadTrace;
  }
  if (file.skipped_lines > 0) {
    std::cerr << "trace-summary: salvage: skipped " << file.skipped_lines
              << " torn/unparseable line(s)\n";
  }
  if (file.events.empty()) {
    std::cerr << "trace-summary: no salvageable events in " << path.string()
              << '\n';
    return kExitBadTrace;
  }
  if (deterministic) {
    std::cout << obs::deterministic_rendering(file);
    return 0;
  }
  const auto rows = obs::attribute_spans(file.events);
  const auto counters = obs::attribute_counters(file.events);
  std::cout << "trace: " << file.events.size() << " events, " << rows.size()
            << " span paths, " << counters.size()
            << " counters, dropped " << file.dropped << "\n\n";
  std::cout << obs::render_trace_summary(rows, top_n);
  if (!counters.empty()) {
    std::cout << "\ncounters:\n"
              << obs::render_counter_summary(counters, top_n);
  }
  return 0;
}

/// One rendered snapshot of a status.json document: the per-run table
/// `peerscope watch` repaints.
std::string render_status(const exp::StatusView& view) {
  util::TextTable table{
      {"run", "state", "att", "events", "sim s", "events/s", "eta s"}};
  for (const auto& run : view.runs) {
    table.add_row({run.spec, run.state, std::to_string(run.attempts),
                   util::TextTable::count(run.events),
                   util::TextTable::num(run.sim_time_s, 1),
                   util::TextTable::num(run.events_per_s, 0),
                   run.eta_s >= 0 ? util::TextTable::num(run.eta_s, 0)
                                  : std::string{"-"}});
  }
  return "phase: " + view.phase + '\n' + table.render();
}

// Tails the atomically-rewritten status.json a supervised run
// publishes via --watch-status. Every rewrite is a rename, so a read
// never observes a torn document; a transiently missing file (watch
// started before the run) is retried, not fatal. Exits when the batch
// phase turns "done", or immediately with --once.
int cmd_watch(const std::filesystem::path& path, bool once,
              std::chrono::milliseconds interval) {
  bool seen = false;
  for (;;) {
    const auto text = util::io::read_file(path);
    std::optional<exp::StatusView> view;
    if (text.has_value()) view = exp::parse_status(*text);
    if (view.has_value()) {
      seen = true;
      std::cout << render_status(*view) << std::flush;
      if (view->phase == "done") return 0;
    } else if (once || seen) {
      // Gone or unparseable after we saw it once: the writer is not
      // coming back (or the file was never a status document).
      std::cerr << "watch: cannot read status from " << path.string()
                << '\n';
      return 1;
    }
    if (once) return 0;
    std::this_thread::sleep_for(interval);
  }
}

// Renders a PSTS time-series sidecar (--series). Default markdown;
// --csv for the long form, --deterministic for the canonical
// rendering CI diffs across pool sizes. Strict by default — a corrupt
// file is kExitBadTrace, mirroring trace-summary — while --salvage
// recovers every interval outside damaged regions with drop
// accounting on stderr.
int cmd_timeline(const std::filesystem::path& path, bool csv,
                 bool deterministic, bool salvage) {
  obs::SeriesSnapshot snapshot;
  try {
    if (salvage) {
      util::SalvageReport report;
      snapshot = obs::read_series_salvage(path, &report);
      if (report.records_skipped > 0) {
        std::cerr << "timeline: salvage: dropped "
                  << report.records_skipped - report.records_rejected
                  << " damaged record(s), " << report.records_rejected
                  << " unparseable payload(s)\n";
      }
    } else {
      snapshot = obs::read_series(path);
    }
  } catch (const std::exception& error) {
    std::cerr << "timeline: " << error.what() << '\n';
    return kExitBadTrace;
  }
  if (snapshot.runs.empty()) {
    std::cerr << "timeline: no intervals in " << path.string() << '\n';
    return kExitBadTrace;
  }
  if (deterministic) {
    std::cout << obs::deterministic_series(snapshot);
  } else if (csv) {
    std::cout << obs::render_series_csv(snapshot);
  } else {
    std::cout << obs::render_series_markdown(snapshot);
  }
  return 0;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage(kExitUsage);
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") return usage(0);
  try {
    if (command == "testbed") return cmd_testbed();
    if (command == "run" || command == "report") {
      int err = kExitUsage;
      const auto args = parse_run_args(argc, argv, 2, err);
      if (!args) return usage(err);
      return command == "run" ? cmd_run(*args) : cmd_report(*args);
    }
    if (command == "analyze") {
      std::filesystem::path dir;
      bool salvage = false;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--salvage") {
          salvage = true;
        } else if (!arg.empty() && arg[0] != '-' && dir.empty()) {
          dir = arg;
        } else {
          std::cerr << "unknown flag: " << arg << '\n';
          return usage(kExitUsage);
        }
      }
      if (dir.empty()) {
        std::cerr << "analyze needs a directory\n";
        return usage(kExitUsage);
      }
      return cmd_analyze(dir, salvage);
    }
    if (command == "reproduce") {
      tools::ReproduceOptions options;
      for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (flag == "--out" && value) {
          options.output = value;
          ++i;
        } else if (flag == "--seed" && value) {
          const auto parsed = parse_integer(flag, value, 0, kMaxSeed);
          if (!parsed) return usage(kExitBadValue);
          options.seed = *parsed;
          ++i;
        } else if (flag == "--duration" && value) {
          const auto parsed = parse_integer(flag, value, 1, kMaxDurationS);
          if (!parsed) return usage(kExitBadValue);
          options.seconds = static_cast<std::int64_t>(*parsed);
          ++i;
        } else if (flag == "--retries" && value) {
          const auto parsed = parse_integer(flag, value, 0, 100);
          if (!parsed) return usage(kExitBadValue);
          options.retries = static_cast<int>(*parsed);
          ++i;
        } else if (flag == "--deadline" && value) {
          const auto parsed = parse_double(value, 0.0, 86'400.0);
          if (!parsed) {
            std::cerr << "invalid value for --deadline: " << value << '\n';
            return usage(kExitBadValue);
          }
          options.deadline_s = *parsed;
          ++i;
        } else if (flag == "--resume") {
          options.resume = true;
        } else {
          std::cerr << "unknown flag: " << flag << '\n';
          return usage(kExitUsage);
        }
      }
      return tools::reproduce(options);
    }
    if (command == "trace-summary") {
      std::filesystem::path path;
      std::size_t top_n = 20;
      bool deterministic = false;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--top" && value) {
          const auto parsed = parse_integer(arg, value, 1, 10'000);
          if (!parsed) return usage(kExitBadValue);
          top_n = static_cast<std::size_t>(*parsed);
          ++i;
        } else if (arg == "--deterministic") {
          deterministic = true;
        } else if (!arg.empty() && arg[0] != '-' && path.empty()) {
          path = arg;
        } else {
          std::cerr << "unknown flag: " << arg << '\n';
          return usage(kExitUsage);
        }
      }
      if (path.empty()) {
        std::cerr << "trace-summary needs a trace.json path\n";
        return usage(kExitUsage);
      }
      return cmd_trace_summary(path, top_n, deterministic);
    }
    if (command == "watch") {
      std::filesystem::path path;
      bool once = false;
      auto interval = std::chrono::milliseconds{500};
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--once") {
          once = true;
        } else if (arg == "--interval-ms" && value) {
          const auto parsed = parse_integer(arg, value, 10, 60'000);
          if (!parsed) return usage(kExitBadValue);
          interval = std::chrono::milliseconds{static_cast<int>(*parsed)};
          ++i;
        } else if (!arg.empty() && arg[0] != '-' && path.empty()) {
          path = arg;
        } else {
          std::cerr << "unknown flag: " << arg << '\n';
          return usage(kExitUsage);
        }
      }
      if (path.empty()) {
        std::cerr << "watch needs a status.json path\n";
        return usage(kExitUsage);
      }
      return cmd_watch(path, once, interval);
    }
    if (command == "timeline") {
      std::filesystem::path path;
      bool csv = false;
      bool deterministic = false;
      bool salvage = false;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--csv") {
          csv = true;
        } else if (arg == "--deterministic") {
          deterministic = true;
        } else if (arg == "--salvage") {
          salvage = true;
        } else if (!arg.empty() && arg[0] != '-' && path.empty()) {
          path = arg;
        } else {
          std::cerr << "unknown flag: " << arg << '\n';
          return usage(kExitUsage);
        }
      }
      if (path.empty()) {
        std::cerr << "timeline needs a series sidecar path\n";
        return usage(kExitUsage);
      }
      return cmd_timeline(path, csv, deterministic, salvage);
    }
    std::cerr << "unknown command: " << command << '\n';
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
  return usage(kExitUsage);
}

}  // namespace

int main(int argc, char** argv) {
  // Global --metrics flag, extracted before dispatch so subcommand
  // parsers never see it. When present, a registry covers the whole
  // invocation and the full sidecar is written at exit — even after a
  // runtime error, so a failing run still leaves its partial counters.
  std::filesystem::path metrics_path;
  std::filesystem::path trace_path;
  std::filesystem::path series_path;
  std::optional<double> series_interval_s;
  // Storage fault injection: flag wins over env so a chaos sweep can
  // set a baseline schedule and individual cells can override it.
  const char* faults_env = std::getenv("PEERSCOPE_IO_FAULTS");
  const char* faults_seed_env = std::getenv("PEERSCOPE_IO_FAULTS_SEED");
  std::string fault_spec = faults_env ? faults_env : "";
  std::string fault_seed_text = faults_seed_env ? faults_seed_env : "";
  std::vector<char*> filtered;
  filtered.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "--metrics needs a value\n";
        return usage(kExitUsage);
      }
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "--trace needs a value\n";
        return usage(kExitUsage);
      }
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--series") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "--series needs a value\n";
        return usage(kExitUsage);
      }
      series_path = argv[++i];
    } else if (std::strcmp(argv[i], "--series-interval") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "--series-interval needs a value\n";
        return usage(kExitUsage);
      }
      const auto parsed = parse_double(argv[++i], 0.001, 1e6);
      if (!parsed) {
        std::cerr << "invalid value for --series-interval: " << argv[i]
                  << '\n';
        return kExitBadValue;
      }
      series_interval_s = parsed;
    } else if (std::strcmp(argv[i], "--io-faults") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "--io-faults needs a value\n";
        return usage(kExitUsage);
      }
      fault_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--io-faults-seed") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "--io-faults-seed needs a value\n";
        return usage(kExitUsage);
      }
      fault_seed_text = argv[++i];
    } else {
      filtered.push_back(argv[i]);
    }
  }
  if (series_interval_s && series_path.empty()) {
    std::cerr << "--series-interval requires --series\n";
    return usage(kExitUsage);
  }

  if (!fault_spec.empty()) {
    std::uint64_t fault_seed = 0;
    if (!fault_seed_text.empty()) {
      const auto parsed = parse_integer("--io-faults-seed",
                                        fault_seed_text.c_str(), 0, kMaxSeed);
      if (!parsed) return kExitBadValue;
      fault_seed = *parsed;
    }
    try {
      util::io::install_faults(
          util::io::FaultPlan::parse(fault_spec, fault_seed));
    } catch (const std::invalid_argument& error) {
      std::cerr << error.what() << '\n';
      return kExitBadValue;
    }
    std::cerr << "io-faults: schedule armed (" << fault_spec << ")\n";
  }

  obs::MetricsRegistry registry;
  if (!metrics_path.empty()) obs::install(&registry);
  obs::TraceRecorder recorder;
  if (!trace_path.empty()) obs::install_tracer(&recorder);
  obs::TimeseriesRecorder series{
      seconds_to_simtime(series_interval_s.value_or(10.0))};
  if (!series_path.empty()) obs::install_series(&series);
  int code = dispatch(static_cast<int>(filtered.size()), filtered.data());
  if (!series_path.empty()) {
    // Like the other sidecars: written even after a runtime error —
    // the intervals up to the failure are the post-mortem timeline.
    obs::install_series(nullptr);
    try {
      obs::write_series(series_path, series.snapshot());
      std::cerr << "series: wrote " << series_path.string() << '\n';
    } catch (const std::exception& error) {
      std::cerr << "series: " << error.what() << '\n';
      if (code == 0) code = 1;
    }
  }
  if (!trace_path.empty()) {
    // Like the metrics sidecar: written even after a runtime error —
    // the failed invocation is exactly the one worth profiling.
    obs::install_tracer(nullptr);
    try {
      obs::write_trace_json(trace_path, recorder.snapshot());
      std::cerr << "trace: wrote " << trace_path.string() << '\n';
    } catch (const std::exception& error) {
      std::cerr << "trace: " << error.what() << '\n';
      if (code == 0) code = 1;
    }
  }
  if (!metrics_path.empty()) {
    obs::install(nullptr);
    try {
      obs::write_metrics_json(metrics_path, registry.snapshot());
      std::cerr << "metrics: wrote " << metrics_path.string() << '\n';
    } catch (const std::exception& error) {
      std::cerr << "metrics: " << error.what() << '\n';
      return code == 0 ? 1 : code;
    }
  }
  return code;
}
