// peerscope — command-line front end. `peerscope --help` prints the
// usage text, which is generated from the two tables below; README.md
// walks through each command.
//
// kCommands names every command, its operand (analyze DIR,
// trace-summary PATH) and its body. kFlags lists every flag once: the
// commands that take it, the commands that require it, its value
// placeholder, and the setter that stores it into Args. A flag every
// command takes is global and may appear anywhere on the line.
// parse_args is the one loop that reads a command line against both
// tables; every numeric value goes through one strict integer parser
// or one strict real parser. The exit codes are the kExit* constants,
// registered in tools/exit_codes.def.

#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "aware/render.hpp"
#include "exp/capture.hpp"
#include "exp/runner.hpp"
#include "exp/supervisor.hpp"
#include "exp/testbed.hpp"
#include "net/topology.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_summary.hpp"
#include "tools/reproduce.hpp"
#include "util/io_faults.hpp"
#include "util/table.hpp"

using namespace peerscope;

namespace {

// Every argument error prints the usage text and returns a distinct
// nonzero code, so scripts can tell "you typed it wrong" (2) from "no
// such app" (3) from "value out of range" (4); 1 is reserved for
// runtime failures.
constexpr int kExitUsage = 2;
constexpr int kExitUnknownApp = 3;
constexpr int kExitBadValue = 4;
constexpr int kExitBadCapture = 6;
constexpr int kExitBadTrace = 7;
// The run finished but missed its discovery re-join SLO
// (exp::DiscoveryDegraded): "degraded as designed", not a crash.
constexpr int kExitDegraded = 8;

/// The commands, one bit each, so a flag names the commands that take
/// it as a mask.
enum : unsigned {
  kTestbed = 1U << 0,
  kRun = 1U << 1,
  kAnalyze = 1U << 2,
  kReport = 1U << 3,
  kReproduce = 1U << 4,
  kTraceSummary = 1U << 5,
  kGlobal = (1U << 6) - 1,  // every command takes it
  kExperiment = kRun | kReport,
  kSupervised = kRun | kReport | kReproduce,
};

/// Everything a command line can say; each command reads its part.
struct Args {
  std::filesystem::path operand;
  // run, report, reproduce
  p2p::SystemProfile profile;
  std::uint64_t seed = 42;
  std::optional<std::int64_t> duration_s;  // unset: the command's default
  std::filesystem::path out;
  bool pcap = false;
  bool csv = false;
  int retries = 0;
  double deadline_s = 0.0;
  bool resume = false;
  sim::ImpairmentSpec impairment;
  p2p::ChurnSpec churn;
  p2p::DiscoverySpec discovery;
  // analyze, trace-summary
  bool salvage = false;
  bool deterministic = false;
  std::size_t top_n = 20;
  // global
  std::filesystem::path metrics_path;
  std::filesystem::path trace_path;
  std::string io_faults;
  std::uint64_t io_faults_seed = 0;
};

/// Stores a flag's value into Args. Returns 0, or the exit code for a
/// value it refuses after printing why.
using Setter =
    std::function<int(Args&, std::string_view flag, const char* value)>;

struct Flag {
  std::string_view name;
  unsigned commands;  // the commands that take it
  const char* value;  // placeholder in the usage text; nullptr: a switch
  Setter set;
  unsigned required = 0;  // the commands that refuse to run without it
};

int bad_value(std::string_view flag, const char* text) {
  std::cerr << "invalid value for " << flag << ": " << text << '\n';
  return kExitBadValue;
}

/// The integer parser: the whole token is base-10 digits with a value
/// in [lo, hi], so `--seed banana` cannot become seed 0, `--duration
/// 5x` a 5 s run, nor `--flash-crowd 2.5` two arrivals.
template <typename Store>
Setter integer(std::uint64_t lo, std::uint64_t hi, Store store) {
  return [=](Args& args, std::string_view flag, const char* text) {
    const char* last = text + std::strlen(text);
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(text, last, v);
    if (ec != std::errc{} || end != last || v < lo || v > hi) {
      return bad_value(flag, text);
    }
    store(args, v);
    return 0;
  };
}

/// The real parser: the whole token is a decimal number in [lo, hi].
/// NaN compares false both ways, so it is out of every range.
template <typename Store>
Setter real(double lo, double hi, Store store) {
  return [=](Args& args, std::string_view flag, const char* text) {
    const char* last = text + std::strlen(text);
    double v = 0;
    const auto [end, ec] = std::from_chars(text, last, v);
    if (ec != std::errc{} || end != last || !(v >= lo && v <= hi)) {
      return bad_value(flag, text);
    }
    store(args, v);
    return 0;
  };
}

util::SimTime seconds_to_simtime(double s) {
  return util::SimTime::nanos(static_cast<std::int64_t>(s * 1e9));
}

/// A discovery instant or window, in seconds up to 1e6.
Setter seconds(util::SimTime p2p::DiscoverySpec::*field) {
  return real(0.0, 1e6, [field](Args& args, double s) {
    args.discovery.*field = seconds_to_simtime(s);
  });
}

Setter path(std::filesystem::path Args::*field) {
  return [field](Args& args, std::string_view, const char* text) {
    args.*field = text;
    return 0;
  };
}

Setter on(bool Args::*field) {
  return [field](Args& args, std::string_view, const char*) {
    args.*field = true;
    return 0;
  };
}

Setter backend(p2p::DiscoveryBackendKind p2p::DiscoverySpec::*field) {
  return [field](Args& args, std::string_view flag, const char* text) {
    const auto kind = p2p::parse_backend_kind(text);
    if (!kind) return bad_value(flag, text);
    args.discovery.*field = *kind;
    return 0;
  };
}

int set_app(Args& args, std::string_view, const char* name) {
  const std::string_view app = name;
  if (app == "pplive") {
    args.profile = p2p::SystemProfile::pplive();
  } else if (app == "sopcast") {
    args.profile = p2p::SystemProfile::sopcast();
  } else if (app == "tvants") {
    args.profile = p2p::SystemProfile::tvants();
  } else if (app == "pplive-popular") {
    args.profile = p2p::SystemProfile::pplive_popular();
  } else if (app == "napawine-proto") {
    args.profile = p2p::SystemProfile::napawine_prototype();
  } else {
    std::cerr << "unknown app: " << name << '\n';
    return kExitUnknownApp;
  }
  return 0;
}

/// --seed takes any 64-bit value; --duration at most what
/// util::SimTime::seconds can represent.
constexpr std::uint64_t kMaxSeed = std::numeric_limits<std::uint64_t>::max();
constexpr auto kMaxDurationS =
    static_cast<std::uint64_t>(util::SimTime::max().ns() / 1'000'000'000);

const Flag kFlags[] = {
    // The experiment: run, report, reproduce.
    {"--app", kExperiment, "NAME", set_app, kExperiment},
    {"--out", kRun | kReproduce, "PATH", path(&Args::out), kRun},
    {"--seed", kSupervised, "N",
     integer(0, kMaxSeed, [](Args& a, std::uint64_t n) { a.seed = n; })},
    {"--duration", kSupervised, "S",
     integer(1, kMaxDurationS,
             [](Args& a, std::uint64_t s) {
               a.duration_s = static_cast<std::int64_t>(s);
             })},
    {"--pcap", kRun, nullptr, on(&Args::pcap)},
    {"--csv", kRun, nullptr, on(&Args::csv)},
    // Supervision (DESIGN.md §10).
    {"--retries", kSupervised, "N",
     integer(0, 100,
             [](Args& a, std::uint64_t n) {
               a.retries = static_cast<int>(n);
             })},
    {"--deadline", kSupervised, "S",
     real(0.0, 86'400.0, [](Args& a, double s) { a.deadline_s = s; })},
    {"--resume", kRun | kReproduce, nullptr, on(&Args::resume)},
    // Network impairment and churn (§8).
    {"--loss", kExperiment, "P",
     real(0.0, 0.95, [](Args& a, double p) { a.impairment.loss_rate = p; })},
    {"--loss-burst", kExperiment, "N",
     real(1.0, 1e6, [](Args& a, double n) { a.impairment.loss_burst = n; })},
    {"--reorder", kExperiment, "P",
     real(0.0, 1.0,
          [](Args& a, double p) { a.impairment.reorder_rate = p; })},
    {"--dup", kExperiment, "P",
     real(0.0, 1.0,
          [](Args& a, double p) { a.impairment.duplicate_rate = p; })},
    {"--outage", kExperiment, "R",
     real(0.0, 1e3, [](Args& a, double r) { a.impairment.outage_per_s = r; })},
    {"--outage-ms", kExperiment, "MS",
     real(0.0, 60'000.0,
          [](Args& a, double ms) {
            a.impairment.outage_duration =
                util::SimTime::nanos(static_cast<std::int64_t>(ms * 1e6));
          })},
    {"--churn", kExperiment, "S",
     real(0.0, 1e9, [](Args& a, double s) { a.churn.probe_session_s = s; })},
    {"--bg-churn", kExperiment, "S",
     real(0.0, 1e9, [](Args& a, double s) { a.churn.bg_session_s = s; })},
    {"--nat-fail", kExperiment, "P",
     real(0.0, 1.0,
          [](Args& a, double p) {
            a.churn.nat_connect_failure = p;
            a.churn.firewall_connect_failure = p;
          })},
    // Discovery (§13).
    {"--discovery", kExperiment, "tracker|dht|gossip",
     backend(&p2p::DiscoverySpec::primary)},
    {"--fallback", kExperiment, "tracker|dht|gossip",
     backend(&p2p::DiscoverySpec::fallback)},
    {"--tracker-outage-at", kExperiment, "S",
     seconds(&p2p::DiscoverySpec::tracker_outage_start)},
    {"--tracker-outage-for", kExperiment, "S",
     seconds(&p2p::DiscoverySpec::tracker_outage_duration)},
    {"--rejoin-deadline", kExperiment, "S",
     seconds(&p2p::DiscoverySpec::rejoin_deadline)},
    {"--nat-matrix", kExperiment, "F",
     real(0.0, 1.0,
          [](Args& a, double f) {
            a.discovery.nat.enabled = true;
            a.discovery.nat.symmetric_fraction = f;
          })},
    {"--flash-crowd", kExperiment, "N",
     integer(1, 1'000'000,
             [](Args& a, std::uint64_t n) {
               a.discovery.flash_crowd_arrivals = static_cast<int>(n);
             })},
    {"--flash-crowd-at", kExperiment, "S",
     seconds(&p2p::DiscoverySpec::flash_crowd_at)},
    {"--zap-reuse", kExperiment, "P",
     real(0.0, 1.0, [](Args& a, double p) { a.discovery.zap_reuse = p; })},
    {"--session-tail", kExperiment, "A",
     real(0.0, 50.0,
          [](Args& a, double alpha) {
            a.discovery.session_tail_alpha = alpha;
          })},
    // Reading stored artifacts.
    {"--salvage", kAnalyze, nullptr, on(&Args::salvage)},
    {"--top", kTraceSummary, "N",
     integer(1, 10'000,
             [](Args& a, std::uint64_t n) {
               a.top_n = static_cast<std::size_t>(n);
             })},
    {"--deterministic", kTraceSummary, nullptr, on(&Args::deterministic)},
    // Global: sidecars (§9, §12) and storage faults (§15).
    {"--metrics", kGlobal, "PATH", path(&Args::metrics_path)},
    {"--trace", kGlobal, "PATH", path(&Args::trace_path)},
    {"--io-faults", kGlobal, "SPEC",
     [](Args& a, std::string_view, const char* spec) {
       a.io_faults = spec;
       return 0;
     }},
    {"--io-faults-seed", kGlobal, "N",
     integer(0, kMaxSeed,
             [](Args& a, std::uint64_t n) { a.io_faults_seed = n; })},
};

int cmd_testbed(const Args&) {
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

/// Maps a supervised failure to the CLI exit code: a run that
/// finished but missed its re-join SLO (exp::DiscoveryDegraded's
/// message prefix) is "degraded" (8), anything else is a runtime
/// error (1).
int failure_exit_code(const std::string& error) {
  return error.starts_with("discovery degraded") ? kExitDegraded : 1;
}

/// run and report: one supervised run of the experiment the flags
/// describe. With a capture target (run) the run also stores its
/// capture there and journals in it, so --resume can skip a finished
/// run after a crash; without one (report) it prints the analysis.
int run_supervised(const Args& args, const exp::CaptureTarget* capture) {
  const std::int64_t duration_s = args.duration_s.value_or(120);
  exp::RunSpec spec;
  spec.profile = args.profile;
  spec.seed = args.seed;
  spec.duration = util::SimTime::seconds(duration_s);
  spec.keep_records = capture != nullptr;
  spec.impairment = args.impairment;
  spec.churn = args.churn;
  spec.discovery = args.discovery;
  if (spec.discovery.flash_crowd_arrivals > 0 &&
      spec.discovery.flash_crowd_at <= util::SimTime::zero()) {
    // Default zap instant: a third into the run — late enough for
    // every probe to be bootstrapped, early enough to observe the
    // re-join settle.
    spec.discovery.flash_crowd_at = util::SimTime::seconds(duration_s / 3);
  }

  exp::SupervisorConfig supervision;
  supervision.retries = args.retries;
  supervision.deadline_s = args.deadline_s;
  if (capture != nullptr) {
    std::filesystem::create_directories(capture->dir);
    supervision.resume = args.resume;
    supervision.journal = capture->dir / "experiment.journal";
    supervision.run_fn = [capture](const net::AsTopology& topo,
                                   const exp::RunSpec& attempt) {
      return exp::run_experiment(topo, attempt, capture);
    };
  }

  std::cerr << "running " << spec.profile.name << " (seed " << spec.seed
            << ", " << duration_s << " s)...\n";
  const net::AsTopology topo = net::make_reference_topology();
  util::ThreadPool pool{1};
  const auto outcome = exp::supervise_runs(
      topo, std::span<const exp::RunSpec>{&spec, 1}, pool, supervision);
  const auto& run = outcome.runs.front();
  if (run.state == exp::RunState::kSkipped) {
    std::cerr << "resume: " << run.spec
              << " already complete, nothing to do\n";
    return 0;
  }
  if (!run.result) {
    std::cerr << "run " << exp::to_string(run.state) << " after "
              << run.attempts << " attempt(s): " << run.error << '\n';
    return failure_exit_code(run.error);
  }
  if (run.attempts > 1) {
    std::cerr << "run succeeded on attempt " << run.attempts << '\n';
  }
  if (capture != nullptr) {
    std::cerr << "wrote " << run.result->observations.probes.size()
              << " traces + metadata to " << capture->dir << '\n';
  } else {
    const auto& data = run.result->observations;
    std::cout << aware::render_app(data.app, aware::app_report(data));
  }
  if (spec.impairment.enabled() || spec.churn.enabled()) {
    print_fault_counters(run.result->counters);
  }
  if (spec.discovery.enabled()) {
    print_discovery_counters(run.result->counters.discovery);
  }
  return 0;
}

int cmd_run(const Args& args) {
  const exp::CaptureTarget capture{args.out, args.pcap, args.csv};
  return run_supervised(args, &capture);
}

int cmd_report(const Args& args) { return run_supervised(args, nullptr); }

int cmd_reproduce(const Args& args) {
  tools::ReproduceOptions options;
  if (!args.out.empty()) options.output = args.out;
  if (args.duration_s) options.seconds = *args.duration_s;
  options.seed = args.seed;
  options.retries = args.retries;
  options.deadline_s = args.deadline_s;
  options.resume = args.resume;
  return tools::reproduce(options);
}

int cmd_analyze(const Args& args) {
  exp::CaptureLoad load;
  try {
    load = exp::load_capture(args.operand, args.salvage);
  } catch (const exp::CaptureError& error) {
    // Every "this is not an analyzable capture" condition lands here:
    // distinct exit code so scripts can tell a bad directory (6) from
    // a genuine runtime failure (1).
    std::cerr << "analyze: " << error.what() << '\n';
    return kExitBadCapture;
  }
  for (const auto& note : load.notes) std::cerr << note << '\n';
  if (args.salvage && !load.clean()) {
    std::cerr << "salvage: analysis continues on the recovered records\n";
  }
  std::cout << aware::render_app(load.data.app, aware::app_report(load.data));
  return 0;
}

// Profiles a trace.json written by --trace:
// per-span-path self/total wall-time attribution, hottest first. Torn
// lines are salvaged with a note; an unreadable file, a foreign
// schema, or a trace with nothing salvageable is kExitBadTrace.
int cmd_trace_summary(const Args& args) {
  const std::filesystem::path& path = args.operand;
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
  if (args.deterministic) {
    std::cout << obs::deterministic_rendering(file);
    return 0;
  }
  const auto rows = obs::attribute_spans(file.events);
  const auto counters = obs::attribute_counters(file.events);
  std::cout << "trace: " << file.events.size() << " events, " << rows.size()
            << " span paths, " << counters.size()
            << " counters, dropped " << file.dropped << "\n\n";
  std::cout << obs::render_trace_summary(rows, args.top_n);
  if (!counters.empty()) {
    std::cout << "\ncounters:\n"
              << obs::render_counter_summary(counters, args.top_n);
  }
  return 0;
}

struct Command {
  std::string_view name;
  unsigned bit;
  const char* operand;  // placeholder in the usage text; nullptr: none
  int (*body)(const Args&);
};

const Command kCommands[] = {
    {"testbed", kTestbed, nullptr, cmd_testbed},
    {"run", kRun, nullptr, cmd_run},
    {"analyze", kAnalyze, "DIR", cmd_analyze},
    {"report", kReport, nullptr, cmd_report},
    {"reproduce", kReproduce, nullptr, cmd_reproduce},
    {"trace-summary", kTraceSummary, "PATH", cmd_trace_summary},
};

/// Prints `items` after `head`, wrapped at 78 columns.
void print_wrapped(std::ostream& out, std::string head,
                   const std::vector<std::string>& items) {
  constexpr std::size_t kWidth = 78;
  std::string line = std::move(head);
  for (const auto& item : items) {
    if (line.size() + 1 + item.size() > kWidth) {
      out << line << '\n';
      line = "     ";
    }
    line += ' ' + item;
  }
  out << line << '\n';
}

/// The synopsis of each flag taken by every command in `bits`:
/// "--app NAME" where it is required, "[--seed N]" elsewhere. A
/// command's list leaves the global flags to their own line.
std::vector<std::string> synopsis(unsigned bits) {
  std::vector<std::string> items;
  for (const Flag& flag : kFlags) {
    if ((flag.commands & bits) != bits) continue;
    if (flag.commands == kGlobal && bits != kGlobal) continue;
    std::string item{flag.name};
    if (flag.value != nullptr) item += std::string{" "} + flag.value;
    items.push_back((flag.required & bits) != 0 ? item : "[" + item + "]");
  }
  return items;
}

int usage(int code) {
  // --help asked for the text: stdout and exit 0. Every other caller
  // is reporting a mistake.
  std::ostream& out = code == 0 ? std::cout : std::cerr;
  out << "usage:\n  peerscope --help | -h\n";
  for (const Command& command : kCommands) {
    std::string head = "  peerscope " + std::string{command.name};
    if (command.operand != nullptr) head += std::string{" "} + command.operand;
    print_wrapped(out, head, synopsis(command.bit));
  }
  out << '\n';
  print_wrapped(out, "global flags (any command, anywhere on the line):",
                synopsis(kGlobal));
  out << R"(
exit codes: 0 ok, 1 runtime error, 2 usage, 3 unknown app, 4 bad value,
            5 partial success, 6 bad capture directory, 7 bad trace file,
            8 degraded (discovery re-join missed --rejoin-deadline)

apps: pplive | sopcast | tvants | pplive-popular | napawine-proto
)";
  return code;
}

/// Reads a command line against kCommands and kFlags. Returns the
/// command to run, or the exit code to stop with (the usage text
/// already printed).
std::variant<const Command*, int> parse_args(int argc, char** argv,
                                              Args& args) {
  const Command* command = nullptr;
  std::vector<const Flag*> given;
  for (int i = 1; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (command == nullptr && (token == "--help" || token == "-h")) {
      return usage(0);
    }
    if (!token.empty() && !token.starts_with('-')) {
      if (command == nullptr) {
        const auto it = std::find_if(
            std::begin(kCommands), std::end(kCommands),
            [token](const Command& c) { return c.name == token; });
        if (it == std::end(kCommands)) {
          std::cerr << "unknown command: " << token << '\n';
          return usage(kExitUsage);
        }
        command = &*it;
      } else if (command->operand != nullptr && args.operand.empty()) {
        args.operand = token;
      } else {
        std::cerr << "unexpected argument: " << token << '\n';
        return usage(kExitUsage);
      }
      continue;
    }
    // Before the command only a global flag can parse.
    const unsigned taker = command != nullptr ? command->bit : kGlobal;
    const auto flag = std::find_if(
        std::begin(kFlags), std::end(kFlags), [token, taker](const Flag& f) {
          return f.name == token && (f.commands & taker) == taker;
        });
    if (flag == std::end(kFlags)) {
      std::cerr << "unknown flag: " << token << '\n';
      return usage(kExitUsage);
    }
    const char* value = "";
    if (flag->value != nullptr) {
      if (i + 1 == argc) {
        std::cerr << token << " needs a value\n";
        return usage(kExitUsage);
      }
      value = argv[++i];
    }
    if (const int code = flag->set(args, flag->name, value); code != 0) {
      return usage(code);
    }
    given.push_back(&*flag);
  }

  if (command == nullptr) return usage(kExitUsage);
  for (const Flag& flag : kFlags) {
    if ((flag.required & command->bit) != 0 &&
        std::find(given.begin(), given.end(), &flag) == given.end()) {
      std::cerr << flag.name << " is required\n";
      return usage(kExitUsage);
    }
  }
  if (command->operand != nullptr && args.operand.empty()) {
    std::cerr << command->name << " needs " << command->operand << '\n';
    return usage(kExitUsage);
  }
  if (args.discovery.fallback != p2p::DiscoveryBackendKind::kNone &&
      args.discovery.primary == p2p::DiscoveryBackendKind::kNone) {
    std::cerr << "--fallback requires --discovery\n";
    return usage(kExitUsage);
  }
  return command;
}

/// Writes one sidecar once the command is done, even after a runtime
/// error: the failed invocation is exactly the one worth inspecting. A
/// sidecar that cannot be written turns a successful exit into 1.
template <typename Write>
void write_sidecar(const char* name, const std::filesystem::path& path,
                   int& code, Write write) {
  if (path.empty()) return;
  try {
    write();
    std::cerr << name << ": wrote " << path.string() << '\n';
  } catch (const std::exception& error) {
    std::cerr << name << ": " << error.what() << '\n';
    if (code == 0) code = 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const auto parsed = parse_args(argc, argv, args);
  if (const int* code = std::get_if<int>(&parsed)) return *code;
  const Command& command = *std::get<const Command*>(parsed);

  if (!args.io_faults.empty()) {
    try {
      util::io::install_faults(
          util::io::FaultPlan::parse(args.io_faults, args.io_faults_seed));
    } catch (const std::invalid_argument& error) {
      std::cerr << error.what() << '\n';
      return kExitBadValue;
    }
    std::cerr << "io-faults: schedule armed (" << args.io_faults << ")\n";
  }

  // Each sidecar's recorder covers the whole invocation; without its
  // flag none is installed and the hooks are no-ops.
  obs::MetricsRegistry registry;
  if (!args.metrics_path.empty()) obs::install(&registry);
  obs::TraceRecorder recorder;
  if (!args.trace_path.empty()) obs::install_tracer(&recorder);

  int code = 1;
  try {
    code = command.body(args);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
  }

  obs::install_tracer(nullptr);
  write_sidecar("trace", args.trace_path, code, [&] {
    obs::write_trace_json(args.trace_path, recorder.snapshot());
  });
  obs::install(nullptr);
  write_sidecar("metrics", args.metrics_path, code, [&] {
    obs::write_metrics_json(args.metrics_path, registry.snapshot());
  });
  return code;
}
