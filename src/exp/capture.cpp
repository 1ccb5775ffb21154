#include "exp/capture.hpp"

#include <algorithm>

#include "aware/observation.hpp"
#include "exp/metadata.hpp"
#include "trace/binary_format.hpp"
#include "trace/flow.hpp"
#include "trace/io.hpp"
#include "trace/pcap.hpp"
#include "util/io_faults.hpp"

namespace peerscope::exp {

namespace {

[[noreturn]] void bad_capture(const std::filesystem::path& dir,
                              const std::string& what) {
  throw CaptureError("capture " + dir.string() + ": " + what);
}

}  // namespace

void write_capture(const p2p::Swarm& swarm, const RunSpec& spec,
                   const CaptureTarget& target) {
  const auto& population = swarm.population();
  ExperimentMetadata meta;
  meta.app = spec.profile.name;
  meta.duration = spec.duration;
  meta.announcements = population.registry().dump();
  meta.impairment = spec.impairment;
  meta.churn = spec.churn;
  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    const auto& info = population.peer(population.probe_ids()[i]);
    const auto label = population.probe_specs()[i].label();
    meta.probes.push_back({info.ep.addr, info.ep.as, info.ep.country,
                           info.access.is_high_bandwidth(), label});
    const net::Ipv4Addr probe = swarm.sink(i).probe();
    auto records = swarm.sink(i).records();
    std::sort(records.begin(), records.end(), trace::record_before);
    trace::write_trace_binary(
        target.dir / ExperimentMetadata::trace_filename(label), probe,
        records);
    if (target.pcap) {
      trace::write_pcap(target.dir / (label + ".pcap"), probe, records);
    }
    if (target.csv) {
      trace::write_trace_csv(target.dir / (label + ".csv"), probe, records);
    }
  }
  write_metadata(target.dir / "experiment.meta", meta);
}

CaptureLoad load_capture(const std::filesystem::path& dir, bool salvage) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) {
    bad_capture(dir, "no such directory");
  }
  if (!std::filesystem::is_directory(dir, ec)) {
    bad_capture(dir, "not a directory");
  }
  const auto meta_path = dir / "experiment.meta";
  if (!std::filesystem::exists(meta_path, ec)) {
    if (std::filesystem::is_empty(dir, ec)) {
      bad_capture(dir, "directory is empty (no experiment.meta) — "
                       "was the capture interrupted before any run "
                       "completed?");
    }
    bad_capture(dir,
                "no experiment.meta (is this a capture directory?)");
  }

  ExperimentMetadata meta;
  try {
    meta = read_metadata(meta_path);
  } catch (const std::exception& error) {
    bad_capture(dir, std::string{"unreadable metadata: "} + error.what());
  }
  const auto registry = meta.build_registry();
  const auto napa = meta.napa_set();

  CaptureLoad load;
  load.data.app = meta.app;
  load.data.duration = meta.duration;
  load.data.probes = meta.probes;
  for (const auto& probe : meta.probes) {
    const auto path =
        dir / ExperimentMetadata::trace_filename(probe.label);
    const bool present = std::filesystem::exists(path, ec);
    trace::TraceFile file;
    if (salvage) {
      if (!present) {
        // Lost probe: keep its vantage slot, contribute nothing —
        // exactly how the paper handled probes whose captures died.
        ++load.probes_lost;
        load.notes.push_back("salvage " + path.filename().string() +
                             ": trace missing, probe excluded");
        load.data.per_probe.emplace_back();
        continue;
      }
      util::SalvageReport report;
      const auto buf = util::io::read_file(path);
      if (!buf) {
        ++load.probes_lost;
        load.notes.push_back("salvage " + path.filename().string() +
                             ": trace unreadable, probe excluded");
        load.data.per_probe.emplace_back();
        continue;
      }
      file = trace::parse_trace_binary_salvage(*buf, &report);
      if (!report.clean()) {
        load.records_skipped += report.records_skipped;
        load.notes.push_back(
            "salvage " + path.filename().string() + ": " +
            std::to_string(report.records_recovered) + " recovered, " +
            std::to_string(report.records_skipped) + " skipped, " +
            std::to_string(report.bytes_discarded) +
            " bytes discarded (" +
            (report.note.empty() ? "ok" : report.note) + ")");
        if (!report.header_valid) ++load.probes_lost;
      }
    } else {
      if (!present) {
        bad_capture(dir, "missing trace " + path.filename().string() +
                             " — partial capture? rerun with --salvage "
                             "to analyze what survived");
      }
      try {
        file = trace::read_trace_binary(path);
      } catch (const std::exception& error) {
        bad_capture(dir, std::string{error.what()} +
                             " — rerun with --salvage to analyze what "
                             "survived");
      }
    }
    load.data.per_probe.push_back(aware::extract_observations(
        trace::FlowTable::from_records(file.probe, file.records), registry,
        napa));
  }
  return load;
}

}  // namespace peerscope::exp
