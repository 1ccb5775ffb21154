#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "aware/observation.hpp"
#include "aware/report.hpp"
#include "bench/harness.hpp"
#include "exp/capture.hpp"
#include "exp/journal.hpp"
#include "exp/metadata.hpp"
#include "exp/supervisor.hpp"
#include "exp/testbed.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "trace/binary_format.hpp"
#include "trace/flow.hpp"
#include "trace/pcap.hpp"
#include "util/atomic_file.hpp"
#include "util/io_faults.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace ps = peerscope;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Calls `f` and adds its wall time to `total`, on every exit path.
template <class F>
decltype(auto) timed(double& total, F&& f) {
  struct Charge {
    double& total;
    Clock::time_point start = Clock::now();
    ~Charge() { total += seconds_since(start); }
  } charge{total};
  return std::forward<F>(f)();
}

/// What one supervised run body spent in each call, timed from outside.
struct RunTimes {
  double testbed_s = 0;
  double swarm_build_s = 0;
  double swarm_run_s = 0;
  double extract_s = 0;
  double sort_s = 0;
  double write_s = 0;
  double body_s = 0;
  std::uint64_t peers = 0;
  std::uint64_t packets = 0;
  std::uint64_t flows = 0;
  std::uint64_t records = 0;
  std::uint64_t bytes_written = 0;
  bool instrumented = false;
};

struct Plan {
  std::vector<ps::exp::RunSpec> specs;
  std::size_t workers = 1;
  /// Journal next to the output, as `reproduce` and `run` do.
  bool journal = false;
  /// Export each run's records as PSBT + pcap and read them back.
  bool capture = false;
};

ps::exp::RunSpec make_spec(ps::p2p::SystemProfile profile,
                           const Options& options) {
  ps::exp::RunSpec spec;
  spec.profile = std::move(profile);
  spec.seed = options.seed;
  spec.duration = ps::util::SimTime::seconds(options.sim_seconds);
  return spec;
}

/// The CLI command each workload stands for is named on its case.
Plan make_plan(const Options& options) {
  using ps::p2p::SystemProfile;
  Plan plan;
  switch (options.workload) {
    case Workload::kReproduce:  // peerscope reproduce
      for (auto profile : {SystemProfile::pplive(), SystemProfile::sopcast(),
                           SystemProfile::tvants(),
                           SystemProfile::pplive_popular()}) {
        plan.specs.push_back(make_spec(std::move(profile), options));
      }
      plan.workers = options.pool_workers;
      plan.journal = true;
      break;
    case Workload::kFullscale: {  // report --app pplive, 181,729 peers
      auto spec = make_spec(SystemProfile::pplive(), options);
      spec.profile.population.background_peers =
          static_cast<std::size_t>(ps::bench::kPaperTable2[0].observed_total);
      plan.specs.push_back(std::move(spec));
      break;
    }
    case Workload::kCapture: {  // run --app sopcast --trace-format binary
      auto spec = make_spec(SystemProfile::sopcast(), options);  // --pcap
      spec.keep_records = true;
      plan.specs.push_back(std::move(spec));
      plan.journal = true;
      plan.capture = true;
      break;
    }
    case Workload::kFaults: {  // report --app pplive + the fault flags
      auto spec = make_spec(SystemProfile::pplive(), options);
      spec.impairment.loss_rate = 0.02;
      spec.impairment.loss_burst = 4;
      spec.impairment.reorder_rate = 0.01;
      spec.impairment.duplicate_rate = 0.01;
      spec.churn.probe_session_s = 120;
      spec.churn.bg_session_s = 60;
      spec.discovery.primary = ps::p2p::DiscoveryBackendKind::kDht;
      spec.discovery.fallback = ps::p2p::DiscoveryBackendKind::kGossip;
      spec.discovery.tracker_outage_start = ps::util::SimTime::seconds(100);
      spec.discovery.tracker_outage_duration = ps::util::SimTime::seconds(30);
      plan.specs.push_back(std::move(spec));
      break;
    }
  }
  return plan;
}

std::uint64_t tree_bytes(const fs::path& root) {
  if (fs::is_regular_file(root)) return fs::file_size(root);
  std::uint64_t bytes = 0;
  if (!fs::is_directory(root)) return bytes;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// The capture half of `peerscope run`: per probe, sort a copy of the
/// kept records and write them as PSBT and pcap; the metadata sidecar
/// goes last. With no directory nothing is written and the sort pass
/// copies empty record stores: the stages run over nothing.
void export_capture(const ps::p2p::Swarm& swarm,
                    const ps::exp::RunSpec& spec, const fs::path& dir,
                    RunTimes& t) {
  const bool writing = !dir.empty();
  const auto& population = swarm.population();
  ps::exp::ExperimentMetadata meta;
  if (writing) {
    meta.app = spec.profile.name;
    meta.duration = spec.duration;
    meta.announcements = population.registry().dump();
    meta.impairment = spec.impairment;
    meta.churn = spec.churn;
  }
  for (std::size_t i = 0; i < swarm.probe_count(); ++i) {
    const auto& sink = swarm.sink(i);
    const auto records = timed(t.sort_s, [&] {
      auto copy = sink.records();
      std::sort(copy.begin(), copy.end(), ps::trace::record_before);
      return copy;
    });
    t.records += records.size();
    timed(t.write_s, [&] {
      if (!writing) return;
      const auto& info = population.peer(population.probe_ids()[i]);
      const auto label = population.probe_specs()[i].label();
      meta.probes.push_back({info.ep.addr, info.ep.as, info.ep.country,
                             info.access.is_high_bandwidth(), label});
      const auto psbt =
          dir / ps::exp::ExperimentMetadata::trace_filename(label);
      const auto pcap = dir / (label + ".pcap");
      ps::trace::write_trace_binary(psbt, sink.probe(), records);
      ps::trace::write_pcap(pcap, sink.probe(), records);
      t.bytes_written += fs::file_size(psbt) + fs::file_size(pcap);
    });
  }
  timed(t.write_s, [&] {
    if (!writing) return;
    ps::exp::write_metadata(dir / "experiment.meta", meta);
    t.bytes_written += fs::file_size(dir / "experiment.meta");
  });
}

/// The run body: exp::run_experiment's calls in its order, each timed
/// from outside, then the capture export of `peerscope run`.
ps::exp::RunResult timed_run(const ps::net::AsTopology& topo,
                             const ps::exp::RunSpec& spec,
                             const fs::path& capture_dir, RunTimes& t) {
  const auto start = Clock::now();
  t.instrumented = ps::obs::enabled() || ps::obs::trace_enabled();
  const auto testbed =
      timed(t.testbed_s, [] { return ps::exp::Testbed::table1(); });
  ps::p2p::SwarmConfig config;
  config.profile = spec.profile;
  config.seed = spec.seed;
  config.duration = spec.duration;
  config.keep_records = spec.keep_records;
  config.impairment = spec.impairment;
  config.churn = spec.churn;
  config.discovery = spec.discovery;
  config.cancel = spec.cancel;
  config.series_key = ps::exp::spec_id(spec);
  config.progress = spec.progress;

  ps::exp::RunResult result;
  {
    ps::obs::Span run_span{"run." + spec.profile.name};
    auto swarm = timed(t.swarm_build_s, [&] {
      return std::make_unique<ps::p2p::Swarm>(topo, testbed.probes(),
                                              std::move(config));
    });
    {
      PEERSCOPE_SPAN("simulate");
      timed(t.swarm_run_s, [&] { swarm->run(); });
    }
    if (ps::obs::enabled()) ps::obs::counter("exp.experiments_run").add();
    result.observations = timed(
        t.extract_s, [&] { return ps::exp::extract_observations(*swarm); });
    result.counters = swarm->counters();
    t.peers = swarm->population().size();
    for (std::size_t i = 0; i < swarm->probe_count(); ++i) {
      const auto& flows = swarm->sink(i).flows();
      t.packets += flows.total_rx_pkts() + flows.total_tx_pkts();
      t.flows += flows.flow_count();
    }
    export_capture(*swarm, spec, capture_dir, t);
  }
  ps::obs::trace_flush();
  t.body_s = seconds_since(start);
  return result;
}

struct LoadTimes {
  double read_s = 0;
  double flow_build_s = 0;
  double extract_s = 0;
  std::uint64_t records = 0;
};

/// exp::load_capture's calls, stage by stage so each layer is timed
/// on its own: read the metadata and parse every trace, build every
/// offline FlowTable, then extract. With no directory each stage runs
/// over nothing.
ps::aware::ExperimentObservations load_capture_timed(const fs::path& dir,
                                                     LoadTimes& t) {
  ps::aware::ExperimentObservations data;
  std::vector<ps::trace::TraceFile> files;
  std::optional<ps::exp::ExperimentMetadata> meta;
  timed(t.read_s, [&] {
    if (dir.empty()) return;
    meta = ps::exp::read_metadata(dir / "experiment.meta");
    for (const auto& probe : meta->probes) {
      const auto path =
          dir / ps::exp::ExperimentMetadata::trace_filename(probe.label);
      const auto buf = ps::util::io::read_file(path);
      if (!buf) throw std::runtime_error("cannot read " + path.string());
      files.push_back(ps::trace::parse_trace_binary(*buf, path.string()));
    }
  });
  std::vector<ps::trace::FlowTable> tables;
  timed(t.flow_build_s, [&] {
    for (const auto& file : files) {
      tables.push_back(
          ps::trace::FlowTable::from_records(file.probe, file.records));
      t.records += file.records.size();
    }
  });
  timed(t.extract_s, [&] {
    if (!meta) return;
    const auto registry = meta->build_registry();
    const auto napa = meta->napa_set();
    data.app = meta->app;
    data.duration = meta->duration;
    data.probes = meta->probes;
    for (const auto& table : tables) {
      data.per_probe.push_back(
          ps::aware::extract_observations(table, registry, napa));
    }
  });
  return data;
}

/// The statistics behind Tables II-IV and Figures 1-2 for one run.
struct Analysis {
  ps::aware::ExperimentSummary summary;
  ps::aware::SelfBias bias;
  std::vector<ps::aware::AwarenessRow> awareness;
  std::vector<ps::aware::GeoShare> geo;
  ps::aware::AsMatrix matrix;
};

Analysis analyze(const ps::aware::ExperimentObservations& data) {
  return {ps::aware::summarize(data), ps::aware::self_bias(data),
          ps::aware::awareness_table(data), ps::aware::geo_breakdown(data),
          ps::aware::as_traffic_matrix(data)};
}

/// Significant digits of every digested value: enough to catch any real
/// change, few enough that reassociation noise in the last bits of a
/// double does not break a golden.
constexpr int kDigits = 12;

void put_opt(std::ostream& out, const std::optional<double>& v) {
  if (v) {
    out << ' ' << *v;
  } else {
    out << " -";
  }
}

void put_awareness(std::ostream& out,
                   const std::vector<ps::aware::AwarenessRow>& rows) {
  for (const auto& row : rows) {
    out << ps::aware::to_string(row.metric);
    for (const auto* cell : {&row.download, &row.upload}) {
      put_opt(out, cell->b_prime_pct);
      put_opt(out, cell->p_prime_pct);
      put_opt(out, cell->b_pct);
      put_opt(out, cell->p_pct);
    }
    out << '\n';
  }
}

void put_matrix(std::ostream& out, const ps::aware::AsMatrix& m) {
  out << "R " << m.intra_inter_ratio << ' ' << m.intra_inter_ratio_with_lan;
  for (const auto as : m.ases) out << ' ' << as.to_string();
  for (const double bytes : m.mean_bytes) out << ' ' << bytes;
  out << '\n';
}

/// Every analysed value to kDigits digits: the text the aware digests
/// hash, and the report the single-run workloads write.
std::string analysis_text(const Analysis& a) {
  std::ostringstream out;
  out << std::setprecision(kDigits);
  const auto& s = a.summary;
  out << "summary " << s.rx_kbps_mean << ' ' << s.rx_kbps_max << ' '
      << s.tx_kbps_mean << ' ' << s.tx_kbps_max << ' ' << s.all_peers_mean
      << ' ' << s.all_peers_max << ' ' << s.contrib_rx_mean << ' '
      << s.contrib_rx_max << ' ' << s.contrib_tx_mean << ' '
      << s.contrib_tx_max << ' ' << s.observed_total << '\n';
  out << "bias " << a.bias.contributors_peer_pct << ' '
      << a.bias.contributors_bytes_pct << ' ' << a.bias.all_peers_peer_pct
      << ' ' << a.bias.all_peers_bytes_pct << '\n';
  put_awareness(out, a.awareness);
  for (const auto& g : a.geo) {
    out << "geo " << (g.cc.known() ? g.cc.to_string() : "*") << ' '
        << g.peer_pct << ' ' << g.rx_bytes_pct << ' ' << g.tx_bytes_pct
        << '\n';
  }
  put_matrix(out, a.matrix);
  return out.str();
}

std::string awareness_text(const std::vector<ps::aware::AwarenessRow>& rows) {
  std::ostringstream out;
  out << std::setprecision(kDigits);
  put_awareness(out, rows);
  return out.str();
}

std::string md(double v, int precision = 1) {
  return ps::util::TextTable::num(v, precision);
}

std::string md_opt(const std::optional<double>& v) {
  return v ? md(*v) : std::string{"–"};
}

std::string md_paper(double v) { return v < 0 ? std::string{"–"} : md(v); }

/// `peerscope reproduce`'s report for a batch where every run
/// succeeded: the same bytes tools/reproduce.cpp renders.
std::string render_report(const Options& options,
                          const std::vector<Analysis>& apps,
                          const ps::aware::AsMatrix& popular) {
  using namespace ps::bench;
  std::ostringstream out;
  out << "# PeerScope reproduction report\n\n"
      << "Paper: *Network Awareness of P2P Live Streaming Applications* "
         "(IPDPS 2009).\n"
      << "Configuration: " << options.sim_seconds
      << " simulated seconds, seed " << options.seed
      << ", Table I testbed, reference topology. Counts are "
      << "scaled (see DESIGN.md §6); percentages and ratios compare "
      << "directly.\n";

  out << "\n## Table II — experiment summary\n\n"
      << "| App | src | RX kbps (mean/max) | TX kbps (mean/max) | peers "
         "(mean/max) | contrib RX | contrib TX | observed |\n"
      << "|---|---|---|---|---|---|---|---|\n";
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& paper = kPaperTable2[i];
    out << "| " << paper.app << " | paper | " << md(paper.rx_mean, 0) << " / "
        << md(paper.rx_max, 0) << " | " << md(paper.tx_mean, 0) << " / "
        << md(paper.tx_max, 0) << " | " << md(paper.peers_mean, 0) << " / "
        << md(paper.peers_max, 0) << " | " << md(paper.contrib_rx_mean, 0)
        << " | " << md(paper.contrib_tx_mean, 0) << " | "
        << md(paper.observed_total, 0) << " |\n";
    const auto& s = apps[i].summary;
    out << "| | ours | " << md(s.rx_kbps_mean, 0) << " / "
        << md(s.rx_kbps_max, 0) << " | " << md(s.tx_kbps_mean, 0) << " / "
        << md(s.tx_kbps_max, 0) << " | " << md(s.all_peers_mean, 0) << " / "
        << md(static_cast<double>(s.all_peers_max), 0) << " | "
        << md(s.contrib_rx_mean, 0) << " | " << md(s.contrib_tx_mean, 0)
        << " | " << md(static_cast<double>(s.observed_total), 0) << " |\n";
  }

  out << "\n## Table III — self-induced bias\n\n"
      << "| App | src | contrib peer % | contrib bytes % | all peer % | "
         "all bytes % |\n|---|---|---|---|---|---|\n";
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& paper = kPaperTable3[i];
    out << "| " << paper.app << " | paper | " << md(paper.contrib_peer_pct, 2)
        << " | " << md(paper.contrib_bytes_pct, 2) << " | "
        << md(paper.all_peer_pct, 2) << " | " << md(paper.all_bytes_pct, 2)
        << " |\n";
    const auto& bias = apps[i].bias;
    out << "| | ours | " << md(bias.contributors_peer_pct, 2) << " | "
        << md(bias.contributors_bytes_pct, 2) << " | "
        << md(bias.all_peers_peer_pct, 2) << " | "
        << md(bias.all_peers_bytes_pct, 2) << " |\n";
  }

  out << "\n## Table IV — network awareness\n\n"
      << "| Net | App | src | B′D | P′D | BD | PD | B′U | P′U | BU | PU |\n"
      << "|---|---|---|---|---|---|---|---|---|---|---|\n";
  for (std::size_t entry = 0; entry < std::size(kPaperTable4); ++entry) {
    const auto& paper = kPaperTable4[entry];
    out << "| " << paper.metric << " | " << paper.app << " | paper | "
        << md_paper(paper.bpd) << " | " << md_paper(paper.ppd) << " | "
        << md_paper(paper.bd) << " | " << md_paper(paper.pd) << " | "
        << md_paper(paper.bpu) << " | " << md_paper(paper.ppu) << " | "
        << md_paper(paper.bu) << " | " << md_paper(paper.pu) << " |\n";
    const auto& row = apps[entry % 3].awareness[entry / 3];
    out << "| | | ours | " << md_opt(row.download.b_prime_pct) << " | "
        << md_opt(row.download.p_prime_pct) << " | "
        << md_opt(row.download.b_pct) << " | " << md_opt(row.download.p_pct)
        << " | " << md_opt(row.upload.b_prime_pct) << " | "
        << md_opt(row.upload.p_prime_pct) << " | "
        << md_opt(row.upload.b_pct) << " | " << md_opt(row.upload.p_pct)
        << " |\n";
  }

  out << "\n## Figure 1 — geographical breakdown (percent)\n\n"
      << "| App | CC | peers | RX bytes | TX bytes |\n|---|---|---|---|---|\n";
  const char* app_names[] = {"PPLive", "SopCast", "TVAnts"};
  for (std::size_t i = 0; i < 3; ++i) {
    for (const auto& share : apps[i].geo) {
      out << "| " << app_names[i] << " | "
          << (share.cc.known() ? share.cc.to_string() : std::string{"*"})
          << " | " << md(share.peer_pct) << " | " << md(share.rx_bytes_pct)
          << " | " << md(share.tx_bytes_pct) << " |\n";
    }
  }

  out << "\n## Figure 2 — intra/inter-AS probe traffic ratio R\n\n"
      << "Same-subnet pairs excluded per §IV-B; the with-LAN column shows "
         "the raw diagonal dominance.\n\n"
      << "| App | paper R | ours R | ours incl. LAN pairs |\n"
      << "|---|---|---|---|\n";
  const double fig2_paper[] = {0.98, 0.2, 1.93};
  for (std::size_t i = 0; i < 3; ++i) {
    out << "| " << app_names[i] << " | " << md(fig2_paper[i], 2) << " | "
        << md(apps[i].matrix.intra_inter_ratio, 2) << " | "
        << md(apps[i].matrix.intra_inter_ratio_with_lan, 2) << " |\n";
  }
  out << "| PPLive-Popular | (strongest locality) | "
      << md(popular.intra_inter_ratio, 2) << " | "
      << md(popular.intra_inter_ratio_with_lan, 2) << " |\n";

  out << "\n---\nGenerated by `peerscope reproduce`. Every number above is "
         "deterministic for the given seed.\n";
  return out.str();
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::size_t slot_of(const Plan& plan, const ps::exp::RunSpec& spec) {
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    if (plan.specs[i].profile.name == spec.profile.name) return i;
  }
  throw std::logic_error("unknown spec " + spec.profile.name);
}

std::size_t observation_count(const ps::aware::ExperimentObservations& d) {
  std::size_t n = 0;
  for (const auto& probe : d.per_probe) n += probe.size();
  return n;
}

/// Digest of the aware outputs at seed 42 and 300 simulated seconds,
/// taken on the commit that introduced the benchmark. 0 means none.
std::uint64_t golden_aware_digest(Workload workload) {
  switch (workload) {
    case Workload::kFullscale:
      return 0x74f1441c0a1e854bULL;
    case Workload::kFaults:
      return 0xaf3c8dbe75ee50d0ULL;
    case Workload::kReproduce:  // checked against REPORT.md instead
    case Workload::kCapture:    // checked offline against online
      return 0;
  }
  return 0;
}

/// The committed report `reproduce` must equal at seed 42, relative to
/// the checkout root the benchmark runs in.
const fs::path kReportGolden = "REPORT.md";

void run(const Options& options, bool deep_check, Iteration& it) {
  fs::remove_all(options.scratch);
  fs::create_directories(options.scratch);
  const Plan plan = make_plan(options);
  const fs::path capture_dir =
      plan.capture ? options.scratch / "capture" : fs::path{};
  if (plan.capture) fs::create_directories(capture_dir);
  const fs::path out_dir = plan.capture ? capture_dir : options.scratch;
  const fs::path journal = out_dir / "experiment.journal";

  std::vector<RunTimes> runs(plan.specs.size());
  LoadTimes load;
  double topo_s = 0;
  double supervise_s = 0;
  double analyze_s = 0;
  double report_s = 0;
  std::vector<Analysis> analyses;
  ps::aware::AsMatrix popular;
  std::string report;
  ps::exp::BatchOutcome outcome;
  ps::aware::ExperimentObservations offline;

  const auto start = Clock::now();
  const auto topo =
      timed(topo_s, [] { return ps::net::make_reference_topology(); });
  {
    ps::exp::SupervisorConfig supervision;
    if (plan.journal) supervision.journal = journal;
    supervision.run_fn = [&](const ps::net::AsTopology& t,
                             const ps::exp::RunSpec& spec) {
      return timed_run(t, spec, capture_dir, runs[slot_of(plan, spec)]);
    };
    ps::util::ThreadPool pool{plan.workers};
    outcome = timed(supervise_s, [&] {
      return ps::exp::supervise_runs(topo, plan.specs, pool, supervision);
    });
  }
  for (const auto& status : outcome.runs) {
    if (status.state != ps::exp::RunState::kOk) {
      throw std::runtime_error("run " + status.spec + " " +
                               ps::exp::to_string(status.state) + ": " +
                               status.error);
    }
  }
  offline = load_capture_timed(capture_dir, load);
  timed(analyze_s, [&] {
    if (plan.capture) {
      analyses.push_back(analyze(offline));
    } else if (options.workload != Workload::kReproduce) {
      analyses.push_back(analyze(outcome.runs[0].result->observations));
    } else {
      // Three apps in full; PPLive-Popular feeds Figure 2 only.
      for (std::size_t i = 0; i < 3; ++i) {
        analyses.push_back(analyze(outcome.runs[i].result->observations));
      }
      popular = ps::aware::as_traffic_matrix(
          outcome.runs[3].result->observations);
    }
  });
  timed(report_s, [&] {
    if (options.workload == Workload::kReproduce) {
      report = render_report(options, analyses, popular);
      ps::util::write_file_atomic(out_dir / "REPORT.md", report);
    } else {
      report = analysis_text(analyses.front());
      ps::util::write_file_atomic(out_dir / "analysis.txt", report);
    }
  });
  it.wall_s = seconds_since(start);

  // ---- everything below is bookkeeping and oracle, outside the clock
  auto& L = it.layers;
  ps::p2p::Swarm::Counters sum;
  double body_sum = 0;
  double critical = 0;
  RunTimes total;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunTimes& r = runs[i];
    total.testbed_s += r.testbed_s;
    total.swarm_build_s += r.swarm_build_s;
    total.swarm_run_s += r.swarm_run_s;
    total.extract_s += r.extract_s;
    total.sort_s += r.sort_s;
    total.write_s += r.write_s;
    total.peers += r.peers;
    total.packets += r.packets;
    total.flows += r.flows;
    total.records += r.records;
    total.bytes_written += r.bytes_written;
    it.instrumented = it.instrumented || r.instrumented;
    body_sum += r.body_s;
    critical = std::max(critical, r.body_s);
    const auto& c = outcome.runs[i].result->counters;
    sum.chunks_delivered += c.chunks_delivered;
    sum.contacts += c.contacts;
    sum.requests_refused += c.requests_refused;
    sum.timeouts += c.timeouts;
    sum.chunks_retried += c.chunks_retried;
    sum.contact_failures += c.contact_failures;
    sum.probe_crashes += c.probe_crashes;
    sum.discovery.joins_ok += c.discovery.joins_ok;
    sum.discovery.dht_lookups += c.discovery.dht_lookups;
    sum.discovery.failovers += c.discovery.failovers;
  }
  it.setup_s = topo_s + total.testbed_s + total.swarm_build_s;
  it.packets = total.packets;
  std::size_t observations = observation_count(offline);
  for (const auto& status : outcome.runs) {
    observations += observation_count(status.result->observations);
  }
  const auto records = static_cast<double>(std::max<std::uint64_t>(
      total.records, 1));
  const auto records_read =
      static_cast<double>(std::max<std::uint64_t>(load.records, 1));
  const double extract_s = total.extract_s + load.extract_s;

  L["net.topology_build_s"] = topo_s;
  L["exp.testbed_build_s"] = total.testbed_s;
  L["p2p.swarm_build_s"] = total.swarm_build_s;
  L["p2p.peers"] = static_cast<double>(total.peers);
  L["p2p.swarm_run_s"] = total.swarm_run_s;
  L["p2p.chunks_delivered"] = static_cast<double>(sum.chunks_delivered);
  L["p2p.contacts"] = static_cast<double>(sum.contacts);
  L["p2p.requests_refused"] = static_cast<double>(sum.requests_refused);
  L["p2p.run_ns_per_packet"] =
      total.swarm_run_s * 1e9 / static_cast<double>(total.packets);
  L["p2p.timeouts"] = static_cast<double>(sum.timeouts);
  L["p2p.chunks_retried"] = static_cast<double>(sum.chunks_retried);
  L["p2p.contact_failures"] = static_cast<double>(sum.contact_failures);
  L["p2p.probe_crashes"] = static_cast<double>(sum.probe_crashes);
  L["p2p.discovery.joins_ok"] = static_cast<double>(sum.discovery.joins_ok);
  L["p2p.discovery.dht_lookups"] =
      static_cast<double>(sum.discovery.dht_lookups);
  L["p2p.discovery.failovers"] = static_cast<double>(sum.discovery.failovers);
  L["trace.packets_captured"] = static_cast<double>(total.packets);
  L["trace.flows"] = static_cast<double>(total.flows);
  L["trace.records"] = static_cast<double>(total.records);
  L["trace.sort_s"] = total.sort_s;
  L["trace.write_s"] = total.write_s;
  L["trace.bytes_written"] = static_cast<double>(total.bytes_written);
  L["trace.read_s"] = load.read_s;
  L["trace.flow_build_s"] = load.flow_build_s;
  L["trace.write_ns_per_record"] = total.write_s * 1e9 / records;
  L["trace.read_ns_per_record"] = load.read_s * 1e9 / records_read;
  L["aware.extract_s"] = extract_s;
  L["aware.observations"] = static_cast<double>(observations);
  L["aware.analyze_s"] = analyze_s;
  L["aware.ns_per_observation"] =
      (extract_s + analyze_s) * 1e9 / static_cast<double>(observations);
  L["exp.supervise_s"] = supervise_s;
  L["exp.critical_path_s"] = critical;
  L["exp.supervise_overhead_s"] = supervise_s - critical;
  L["exp.parallel_efficiency"] =
      body_sum / (static_cast<double>(plan.workers) * supervise_s);
  L["exp.journal_bytes"] = static_cast<double>(
      plan.journal ? tree_bytes(journal) + tree_bytes(journal.string() + ".d")
                   : 0);
  L["util.report_write_s"] = report_s;
  L["unattributed_s"] = it.wall_s - (topo_s + supervise_s + load.read_s +
                                     load.flow_build_s + load.extract_s +
                                     analyze_s + report_s);

  std::string aware_text;
  for (const auto& a : analyses) aware_text += analysis_text(a);
  if (options.workload == Workload::kReproduce) {
    std::ostringstream out;
    out << std::setprecision(kDigits);
    put_matrix(out, popular);
    aware_text += out.str();
  }
  std::ostringstream counts;
  counts << "packets " << total.packets << " flows " << total.flows
         << " records " << total.records << " read " << load.records
         << " peers " << total.peers << " observations " << observations
         << " chunks " << sum.chunks_delivered << " contacts " << sum.contacts
         << " refused " << sum.requests_refused << " timeouts "
         << sum.timeouts << " retried " << sum.chunks_retried
         << " contact_failures " << sum.contact_failures << " crashes "
         << sum.probe_crashes << " joins " << sum.discovery.joins_ok
         << " dht " << sum.discovery.dht_lookups << " failovers "
         << sum.discovery.failovers << '\n';
  it.aware_digest = fnv1a(aware_text);
  it.digest = fnv1a(aware_text + counts.str());

  // ---- correctness oracle
  const bool golden_scale = options.seed == 42 && options.sim_seconds == 300;
  const std::uint64_t golden = golden_aware_digest(options.workload);
  switch (options.workload) {
    case Workload::kReproduce: {
      const auto entries = ps::exp::journal_replay(journal);
      const auto ok = std::count_if(
          entries.begin(), entries.end(),
          [](const auto& entry) { return entry.second.state == "ok"; });
      if (static_cast<std::size_t>(ok) != plan.specs.size()) {
        it.failure = "journal holds " + std::to_string(ok) + " ok runs of " +
                     std::to_string(plan.specs.size());
      } else if (golden_scale &&
                 ps::util::io::read_file(kReportGolden) != report) {
        it.failure = "report differs from " + kReportGolden.string();
      }
      break;
    }
    case Workload::kCapture: {
      const auto online = awareness_text(ps::aware::awareness_table(
          outcome.runs.front().result->observations));
      const auto stored = awareness_text(analyses.front().awareness);
      if (online != stored) {
        it.failure = "offline Table IV differs from the online one";
      } else if (deep_check &&
                 awareness_text(ps::aware::awareness_table(
                     ps::exp::load_capture(capture_dir, false).data)) !=
                     stored) {
        it.failure = "exp::load_capture differs from the timed load";
      }
      break;
    }
    case Workload::kFullscale: {
      const auto& s = analyses.front().summary;
      if (!(s.tx_kbps_mean > 3 * s.rx_kbps_mean)) {
        it.failure = "shape: PPLive TX is not >> its RX";
      }
      break;
    }
    case Workload::kFaults: {
      const auto& bw = analyses.front().awareness.front().download;
      if (!(bw.b_prime_pct.value_or(0) > 90 &&
            bw.p_prime_pct.value_or(0) > 65)) {
        it.failure = "shape: BW preference did not survive the faults";
      } else if (sum.timeouts + sum.chunks_retried + sum.probe_crashes ==
                 0) {
        it.failure = "shape: fault injection did nothing";
      }
      break;
    }
  }
  if (it.failure.empty() && golden_scale && golden != 0 &&
      it.aware_digest != golden) {
    std::ostringstream why;
    why << "aware digest " << std::hex << it.aware_digest
        << " differs from golden " << golden;
    it.failure = why.str();
  }
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const auto w : {Workload::kReproduce, Workload::kFullscale,
                       Workload::kCapture, Workload::kFaults}) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kReproduce:
      return "reproduce";
    case Workload::kFullscale:
      return "fullscale";
    case Workload::kCapture:
      return "capture";
    case Workload::kFaults:
      return "faults";
  }
  return "?";
}

Iteration run_iteration(const Options& options, bool deep_check) {
  Iteration it;
  try {
    run(options, deep_check, it);
  } catch (const std::exception& error) {
    it.failure = std::string{"exception: "} + error.what();
  }
  return it;
}

}  // namespace perfbench
