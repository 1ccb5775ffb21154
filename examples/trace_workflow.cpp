// The full downstream-user trace workflow:
//   1. run a (small) experiment capturing raw packet records;
//   2. export every probe's capture as PSBT .psct (native), .csv and .pcap
//      (wireshark/tcpdump-compatible);
//   3. reload the native traces from disk;
//   4. re-run the complete black-box analysis offline and verify it
//      matches the online pipeline bit-for-bit.
//
//   ./trace_workflow [output_dir] [duration_s]

#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "aware/observation.hpp"
#include "aware/report.hpp"
#include "aware/temporal.hpp"
#include "exp/runner.hpp"
#include "exp/testbed.hpp"
#include "net/topology.hpp"
#include "trace/binary_format.hpp"
#include "trace/io.hpp"
#include "trace/pcap.hpp"
#include "util/table.hpp"

using namespace peerscope;

int main(int argc, char** argv) {
  const std::filesystem::path dir =
      argc > 1 ? argv[1] : "peerscope_traces";
  const std::int64_t duration_s = argc > 2 ? std::atoll(argv[2]) : 60;
  std::filesystem::create_directories(dir);

  // 1. Capture.
  const net::AsTopology topo = net::make_reference_topology();
  const exp::Testbed testbed = exp::Testbed::table1();
  p2p::SwarmConfig config;
  config.profile = p2p::SystemProfile::tvants();
  config.seed = 42;
  config.duration = util::SimTime::seconds(duration_s);
  config.keep_records = true;
  p2p::Swarm swarm{topo, testbed.probes(), config};
  std::cout << "Simulating " << config.profile.name << " for " << duration_s
            << " s with packet capture at all " << testbed.host_count()
            << " probes...\n";
  swarm.run();

  // 2. Export.
  std::uint64_t total_records = 0;
  const auto& population = swarm.population();
  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    const auto label = population.probe_specs()[i].label();
    auto records = swarm.sink(i).records();
    std::sort(records.begin(), records.end(), trace::record_before);
    trace::write_trace_binary(dir / (label + ".psct"), swarm.sink(i).probe(),
                              records);
    trace::write_trace_csv(dir / (label + ".csv"), swarm.sink(i).probe(),
                           records);
    trace::write_pcap(dir / (label + ".pcap"), swarm.sink(i).probe(),
                      records);
    total_records += records.size();
  }
  std::cout << "Wrote " << swarm.probe_count() << " x {psct,csv,pcap} ("
            << util::TextTable::count(total_records) << " packets) to "
            << dir << "\n";

  // 3+4. Reload and re-analyse offline.
  aware::ExperimentObservations offline;
  offline.app = config.profile.name;
  offline.duration = config.duration;
  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    const auto label = population.probe_specs()[i].label();
    const trace::TraceFile file =
        trace::read_trace_binary(dir / (label + ".psct"));
    const auto& info = population.peer(population.probe_ids()[i]);
    offline.probes.push_back({file.probe, info.ep.as, info.ep.country,
                              info.access.is_high_bandwidth(), label});
    offline.per_probe.push_back(aware::extract_observations(
        trace::FlowTable::from_records(file.probe, file.records),
        population.registry(), population.probe_addrs()));
  }

  const auto online = exp::extract_observations(swarm);
  const auto online_rows = aware::awareness_table(online);
  const auto offline_rows = aware::awareness_table(offline);
  bool identical = true;
  for (std::size_t m = 0; m < online_rows.size(); ++m) {
    if (online_rows[m].download.b_pct != offline_rows[m].download.b_pct ||
        online_rows[m].download.p_pct != offline_rows[m].download.p_pct) {
      identical = false;
    }
  }
  std::cout << "offline (trace-file) analysis matches online pipeline: "
            << (identical ? "yes" : "NO") << "\n\n";

  // Bonus: the temporal view of one institution probe's capture.
  const auto& records = swarm.sink(0).records();
  const auto series =
      aware::time_series(records, config.duration, util::SimTime::seconds(10));
  util::TextTable table{
      {"t [s]", "RX kbps", "TX kbps", "active peers", "new contributors"}};
  for (const auto& point : series) {
    table.add_row({util::TextTable::num(point.start.seconds(), 0),
                   util::TextTable::num(point.rx_kbps, 0),
                   util::TextTable::num(point.tx_kbps, 0),
                   std::to_string(point.active_peers),
                   std::to_string(point.new_rx_contributors)});
  }
  std::cout << "temporal evolution at probe "
            << population.probe_specs()[0].label() << ":\n"
            << table.render();

  const auto stability = aware::session_stability(records);
  std::cout << "\npeer session stability: mean "
            << util::TextTable::num(stability.mean_session_s, 1)
            << " s, median "
            << util::TextTable::num(stability.median_session_s, 1)
            << " s, p90 "
            << util::TextTable::num(stability.p90_session_s, 1) << " s over "
            << stability.peers << " peers\n";
  return 0;
}
