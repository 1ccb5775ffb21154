// perfbench: runs one workload for a time budget and prints one
// JSON result line (README.md has the metric table).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--scratch DIR] [--commit ID]
//
// --trace 0 measures the end-to-end metrics with no obs registry, tracer
// or series recorder installed. --trace 1 reports the per-layer metrics:
// uninstrumented iterations give the layer timings, then iterations with
// obs::MetricsRegistry + obs::TraceRecorder installed give the
// in-program counts and the instrumentation overhead.
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Cold first iterations run 25-45% slow (page faults, allocator
/// growth); each process runs one untimed warm-up iteration first, and
/// every timed metric is a median of at least this many iterations.
constexpr int kMinSamples = 3;

#ifdef __clang__
constexpr const char* kCompiler = "clang ";
#else
constexpr const char* kCompiler = "gcc ";
#endif

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload reproduce|fullscale|"
               "capture|faults --seed N --seconds S --trace 0|1 "
               "[--scratch DIR] [--commit ID]\n";
  std::exit(2);
}

std::uint64_t parse_u64(std::string_view flag, std::string_view text) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text.begin(), text.end(), v);
  if (ec != std::errc{} || end != text.end()) {
    usage("invalid value for " + std::string{flag} + ": " +
          std::string{text});
  }
  return v;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

std::string filesystem_of(const std::filesystem::path& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x6969UL:
      return "nfs";
    default: {
      std::ostringstream out;
      out << "0x" << std::hex << static_cast<unsigned long>(fs.f_type);
      return out.str();
    }
  }
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string unit_of(std::string_view name) {
  const auto ends = [&](std::string_view s) {
    return name.size() >= s.size() &&
           name.substr(name.size() - s.size()) == s;
  };
  if (name.find("ns_per") != std::string_view::npos) return "ns";
  if (ends("_s")) return "s";
  if (name.find("bytes") != std::string_view::npos) return "bytes";
  if (ends("ratio") || ends("efficiency")) return "ratio";
  return "count";
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// In-program counts of a traced iteration, read from the registry and
/// recorder installed around it.
/// The traced values that must repeat: all but the expansion wall time.
std::map<std::string, double> comparable(
    std::map<std::string, double> counts) {
  counts.erase("sim.train_expand_s");
  return counts;
}

std::map<std::string, double> traced_counts(
    const peerscope::obs::MetricsSnapshot& metrics,
    const peerscope::obs::TraceSnapshot& trace) {
  std::map<std::string, double> out;
  for (const char* name :
       {"sim.events_executed", "sim.trains_expanded", "sim.packets_generated",
        "sim.packets_lost", "sim.packets_reordered",
        "sim.packets_duplicated"}) {
    const auto it = metrics.counters.find(name);
    out[name] =
        it == metrics.counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  const auto hist = metrics.histograms.find("sim.train_expand_ns");
  out["sim.train_expand_s"] =
      hist == metrics.histograms.end()
          ? 0.0
          : static_cast<double>(hist->second.sum) / 1e9;
  out["obs.trace_events"] = static_cast<double>(trace.events.size());
  out["obs.trace_events_dropped"] = static_cast<double>(trace.dropped);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.pool_workers = std::min<std::size_t>(4, nproc());
  options.scratch = ".bench_build/scratch";
  std::string commit = "unknown";
  bool have_workload = false;
  bool have_seed = false;
  std::uint64_t seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string{flag});
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      const auto w = perfbench::parse_workload(value);
      if (!w) usage("unknown workload " + std::string{value});
      options.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = parse_u64(flag, value);
    } else if (flag == "--trace") {
      trace = static_cast<int>(parse_u64(flag, value));
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      usage("unknown flag " + std::string{flag});
    }
  }
  if (!have_workload || !have_seed || seconds == 0 ||
      (trace != 0 && trace != 1)) {
    usage("--workload, --seed, --seconds > 0 and --trace 0|1 are required");
  }
  options.scratch /= perfbench::to_string(options.workload);
  const std::size_t workers =
      options.workload == perfbench::Workload::kReproduce
          ? options.pool_workers
          : 1;

  int attempted = 0;
  int failed = 0;
  std::uint64_t reference_digest = 0;
  std::uint64_t aware_digest = 0;
  std::uint64_t peers = 0;
  const auto check = [&](const perfbench::Iteration& it, bool traced) {
    ++attempted;
    std::string failure = it.failure;
    if (failure.empty() && it.instrumented != traced) {
      failure = traced ? "instrumentation was not installed"
                       : "an e2e iteration ran instrumented";
    }
    if (failure.empty() && it.digest != reference_digest) {
      failure = "outputs or counts changed between iterations";
    }
    if (!failure.empty()) ++failed;
    std::cerr << "iteration " << attempted << (traced ? " traced" : "")
              << ": wall " << it.wall_s << " s, setup " << it.setup_s
              << " s, " << (failure.empty() ? "ok" : failure) << '\n';
    return failure.empty();
  };

  // Warm-up: untimed, but its oracle (with the slow checks) counts.
  {
    const auto warm = perfbench::run_iteration(options, true);
    reference_digest = warm.digest;
    aware_digest = warm.aware_digest;
    peers = static_cast<std::uint64_t>(
        warm.layers.count("p2p.peers") ? warm.layers.at("p2p.peers") : 0);
    check(warm, false);
  }

  const auto budget = std::chrono::duration<double>(
      static_cast<double>(seconds) * (trace == 1 ? 0.5 : 1.0));
  // Medians come from the iterations that passed; a failed one's
  // timings describe a run that did not do the workload's work.
  std::vector<perfbench::Iteration> plain;
  const auto plain_start = Clock::now();
  for (int runs = 0;
       runs < kMinSamples || Clock::now() - plain_start < budget; ++runs) {
    auto it = perfbench::run_iteration(options, false);
    if (check(it, false)) plain.push_back(std::move(it));
  }
  const double rss_mb = peak_rss_mb();

  std::vector<double> traced_walls;
  std::map<std::string, double> counts;
  if (trace == 1) {
    const auto traced_start = Clock::now();
    for (int runs = 0; runs < 1 || Clock::now() - traced_start < budget;
         ++runs) {
      peerscope::obs::MetricsRegistry registry;
      peerscope::obs::TraceRecorder recorder;
      peerscope::obs::install(&registry);
      peerscope::obs::install_tracer(&recorder);
      const auto it = perfbench::run_iteration(options, false);
      peerscope::obs::install_tracer(nullptr);
      peerscope::obs::install(nullptr);
      const auto these =
          traced_counts(registry.snapshot(), recorder.snapshot());
      if (!check(it, true)) continue;
      if (!counts.empty() && comparable(these) != comparable(counts)) {
        ++failed;
        std::cerr << "traced counts changed between iterations\n";
      }
      counts = these;
      traced_walls.push_back(it.wall_s);
    }
  }

  const auto plain_median = [&](const auto& get) {
    std::vector<double> v;
    for (const auto& it : plain) v.push_back(get(it));
    return median(v);
  };
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  const bool measured = !plain.empty() && (trace == 0 || !traced_walls.empty());
  const double wall_s =
      measured ? plain_median([](const perfbench::Iteration& it) {
        return it.wall_s;
      })
               : 0.0;
  if (!measured) {
    std::cerr << "no iteration passed; nothing to report\n";
  } else if (trace == 0) {
    metrics.push_back({"wall_s", {wall_s, "s"}});
    metrics.push_back(
        {"setup_s",
         {plain_median(
              [](const perfbench::Iteration& it) { return it.setup_s; }),
          "s"}});
    metrics.push_back(
        {"packets_per_s",
         {plain_median([](const perfbench::Iteration& it) {
            return static_cast<double>(it.packets) / it.wall_s;
          }),
          "1/s"}});
    metrics.push_back({"peak_rss_mb", {rss_mb, "MB"}});
  } else {
    std::map<std::string, double> layers;
    for (const auto& entry : plain.front().layers) {
      const std::string& name = entry.first;
      layers[name] = plain_median([&name](const perfbench::Iteration& it) {
        return it.layers.at(name);
      });
    }
    for (const auto& [name, value] : counts) layers[name] = value;
    const double events = counts.count("sim.events_executed")
                              ? counts.at("sim.events_executed")
                              : 0.0;
    layers["sim.ns_per_event"] =
        events > 0 ? layers.at("p2p.swarm_run_s") * 1e9 / events : 0.0;
    layers["obs.overhead_ratio"] = median(traced_walls) / wall_s;
    layers["fail_ratio"] =
        static_cast<double>(failed) / static_cast<double>(attempted);
    for (const auto& [name, value] : layers) {
      metrics.push_back({name, {value, unit_of(name)}});
    }
  }

  std::ostringstream identity;
  identity << "{\"identity\":{\"workload\":\""
           << perfbench::to_string(options.workload)
           << "\",\"seed\":" << options.seed
           << ",\"sim_seconds\":" << options.sim_seconds
           << ",\"aware_digest\":\"" << std::hex << aware_digest << std::dec
           << "\",\"peers\":" << peers << ",\"pool_workers\":" << workers
           << ",\"nproc\":" << nproc() << ",\"build_type\":\""
           << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\""
           << kCompiler << json_escape(__VERSION__) << "\",\"commit\":\""
           << json_escape(commit) << "\",\"scratch_fs\":\""
           << filesystem_of(options.scratch)
           << "\",\"instrumentation\":\"" << (trace == 1 ? "off+traced" : "off")
           << "\",\"timed_iterations\":" << plain.size()
           << ",\"traced_iterations\":" << traced_walls.size() << "}}";
  std::cout << identity.str() << '\n';

  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics) {
    if (!std::isfinite(value_unit.first)) {
      std::cerr << "metric " << name << " is not finite\n";
      return 1;
    }
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
        << value_unit.first << ", \"unit\": \"" << value_unit.second
        << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  std::filesystem::remove_all(options.scratch);
  return 0;
}
