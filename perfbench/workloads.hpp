// The benchmark's workloads. One iteration runs a user-facing peerscope
// pipeline through the libraries' public functions and times each call
// from outside, so the timed path carries no instrumentation of its own:
//
//   topology -> supervised runs (testbed, Swarm build, Swarm::run,
//   extract, capture export) -> offline capture load -> aware analysis
//   -> report render + write
//
// Every workload walks the same stages; a stage a workload does not use
// (the export and offline load outside `capture`) runs over nothing.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace perfbench {

enum class Workload { kReproduce, kFullscale, kCapture, kFaults };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* to_string(Workload workload);

struct Options {
  Workload workload = Workload::kReproduce;
  std::uint64_t seed = 42;
  std::int64_t sim_seconds = 300;
  /// Thread-pool size for `reproduce`; the other workloads run on one
  /// worker, like the single-run CLI commands.
  std::size_t pool_workers = 4;
  /// Where an iteration writes its journal, report and capture. It is
  /// emptied at the start of every iteration.
  std::filesystem::path scratch;
};

struct Iteration {
  double wall_s = 0;
  /// make_reference_topology + Testbed::table1 + Swarm constructors.
  double setup_s = 0;
  /// Packets captured by all probes (FlowTable RX + TX packet totals).
  std::uint64_t packets = 0;
  /// Per-layer values measured from outside, keyed by metric name:
  /// seconds for `_s` names, counts otherwise.
  std::map<std::string, double> layers;
  /// Digest of the aware outputs alone (compared against goldens).
  std::uint64_t aware_digest = 0;
  /// Digest of the aware outputs and every count the iteration saw;
  /// equal across iterations of one seed.
  std::uint64_t digest = 0;
  /// A metrics registry or tracer was installed inside a run body.
  bool instrumented = false;
  /// Empty when the iteration ran and its correctness oracle held.
  std::string failure;
};

/// Runs one iteration. `deep_check` adds checks too slow for every
/// iteration (capture: exp::load_capture must equal the timed load);
/// they run after the wall clock stops. Never throws: an exception
/// becomes Iteration::failure.
[[nodiscard]] Iteration run_iteration(const Options& options,
                                      bool deep_check);

}  // namespace perfbench
