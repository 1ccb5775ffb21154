#include "tools/reproduce.hpp"

#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "aware/claims.hpp"
#include "aware/paper.hpp"
#include "aware/report.hpp"
#include "exp/supervisor.hpp"
#include "net/topology.hpp"
#include "util/atomic_file.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace peerscope::tools {

namespace {

using aware::kPaperFig2Ratios;
using aware::kPaperTable2;
using aware::kPaperTable3;
using aware::kPaperTable4;

std::string md(double v, int precision = 1) {
  return util::TextTable::num(v, precision);
}

std::string md_opt(const std::optional<double>& v) {
  return v ? md(*v) : std::string{"–"};
}

std::string md_paper(double v) {
  return v < 0 ? std::string{"–"} : md(v);
}

/// The Figure 2 ratio the paper reports for `app`.
double paper_fig2_ratio(std::string_view app) {
  for (const auto& paper : kPaperFig2Ratios) {
    if (app == paper.app) return paper.ratio;
  }
  throw std::logic_error("reproduce: an application has no Figure 2 ratio");
}

/// Dash row fragment for an application whose run produced no data:
/// `cells` dash cells joined in table syntax.
std::string missing_cells(int cells) {
  std::string out;
  for (int i = 0; i < cells; ++i) out += " – |";
  return out;
}

/// One stderr line for the claims table, plus one line for each claim
/// whose verdict is not the expected one.
void print_claims(const std::vector<aware::Claim>& claims) {
  std::size_t expected = 0, holding = 0, deviations = 0, still_failing = 0;
  for (const auto& claim : claims) {
    if (claim.deviation.empty()) {
      ++expected;
      if (claim.holds) ++holding;
    } else {
      ++deviations;
      if (!claim.holds) ++still_failing;
    }
  }
  std::cerr << "reproduce: claims: " << holding << " of " << expected
            << " hold; " << still_failing << " of " << deviations
            << " known deviations still fail\n";
  for (const auto& claim : claims) {
    if (claim.as_expected()) continue;
    std::cerr << "reproduce: claim " << claim.id
              << (claim.holds ? " holds, expected to fail: " : " fails: ")
              << claim.statement << " [" << claim.value << "]\n";
  }
}

}  // namespace

int reproduce(const ReproduceOptions& options) {
  const net::AsTopology topo = net::make_reference_topology();

  // Specs [0..2] are the paper's three applications (report row order),
  // [3] the PPLive-Popular panel for Figure 2.
  const std::vector<exp::RunSpec> specs = exp::reproduction_specs(
      options.seed, util::SimTime::seconds(options.seconds));

  exp::SupervisorConfig supervision;
  supervision.retries = options.retries;
  supervision.deadline_s = options.deadline_s;
  supervision.resume = options.resume;
  supervision.journal =
      options.output.parent_path() / "experiment.journal";

  std::cerr << "reproduce: running PPLive, SopCast, TVAnts, "
               "PPLive-Popular ("
            << options.seconds << " s each, seed " << options.seed
            << (options.resume ? ", resuming" : "") << ")...\n";
  util::ThreadPool pool;
  const auto outcome = supervise_runs(topo, specs, pool, supervision);
  for (std::size_t i = 0; i < outcome.runs.size(); ++i) {
    const auto& run = outcome.runs[i];
    std::cerr << "reproduce: " << specs[i].profile.name << ": "
              << exp::to_string(run.state);
    if (run.attempts > 1) std::cerr << " (" << run.attempts << " attempts)";
    if (!run.error.empty()) std::cerr << " — " << run.error;
    std::cerr << '\n';
  }
  if (outcome.succeeded() == 0) {
    std::cerr << "reproduce: no run produced results; no report written\n";
    return 1;
  }

  // Reports [0..2] of the three applications and the PPLive-Popular
  // matrix; nullopt for a run that produced no data.
  std::vector<std::optional<aware::AppReport>> reports(3);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& run = outcome.runs[i];
    if (run.ok()) reports[i] = aware::app_report(run.result->observations);
  }
  const auto& popular_run = outcome.runs[3];
  std::optional<aware::AsMatrix> popular;
  if (popular_run.ok()) {
    popular = aware::as_traffic_matrix(popular_run.result->observations);
  }
  const auto app_name = [&](std::size_t i) {
    return specs[i].profile.name;
  };

  std::ostringstream out;
  out << "# PeerScope reproduction report\n\n"
      << "Paper: *Network Awareness of P2P Live Streaming Applications* "
         "(IPDPS 2009).\n"
      << "Configuration: " << options.seconds << " simulated seconds, seed "
      << options.seed << ", Table I testbed, reference topology. Counts are "
      << "scaled (see DESIGN.md §6); percentages and ratios compare "
      << "directly.\n";

  if (!outcome.complete()) {
    out << "\n> **Partial results.** ";
    for (const auto& run : outcome.runs) {
      if (run.ok()) continue;
      out << run.spec << " " << exp::to_string(run.state)
          << (run.error.empty() ? std::string{}
                                : " (" + run.error + ")")
          << "; ";
    }
    out << "affected rows are dashed below.\n";
  }

  // ------------------------------------------------------------ Table II
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
    const auto& report = reports[i];
    if (!report) {
      out << "| | ours |" << missing_cells(6) << '\n';
      continue;
    }
    const auto& s = report->summary;
    out << "| | ours | " << md(s.rx_kbps_mean, 0) << " / "
        << md(s.rx_kbps_max, 0) << " | " << md(s.tx_kbps_mean, 0) << " / "
        << md(s.tx_kbps_max, 0) << " | " << md(s.all_peers_mean, 0) << " / "
        << md(static_cast<double>(s.all_peers_max), 0) << " | "
        << md(s.contrib_rx_mean, 0) << " | " << md(s.contrib_tx_mean, 0)
        << " | " << md(static_cast<double>(s.observed_total), 0) << " |\n";
  }

  // ----------------------------------------------------------- Table III
  out << "\n## Table III — self-induced bias\n\n"
      << "| App | src | contrib peer % | contrib bytes % | all peer % | "
         "all bytes % |\n|---|---|---|---|---|---|\n";
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& paper = kPaperTable3[i];
    out << "| " << paper.app << " | paper | " << md(paper.contrib_peer_pct, 2)
        << " | " << md(paper.contrib_bytes_pct, 2) << " | "
        << md(paper.all_peer_pct, 2) << " | " << md(paper.all_bytes_pct, 2)
        << " |\n";
    const auto& report = reports[i];
    if (!report) {
      out << "| | ours |" << missing_cells(4) << '\n';
      continue;
    }
    const auto& bias = report->bias;
    out << "| | ours | " << md(bias.contributors_peer_pct, 2) << " | "
        << md(bias.contributors_bytes_pct, 2) << " | "
        << md(bias.all_peers_peer_pct, 2) << " | "
        << md(bias.all_peers_bytes_pct, 2) << " |\n";
  }

  // ------------------------------------------------------------ Table IV
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
    const auto& report = reports[entry % 3];
    if (!report) {
      out << "| | | ours |" << missing_cells(8) << '\n';
      continue;
    }
    const auto& measured = report->awareness[entry / 3];
    out << "| | | ours | " << md_opt(measured.download.b_prime_pct) << " | "
        << md_opt(measured.download.p_prime_pct) << " | "
        << md_opt(measured.download.b_pct) << " | "
        << md_opt(measured.download.p_pct) << " | "
        << md_opt(measured.upload.b_prime_pct) << " | "
        << md_opt(measured.upload.p_prime_pct) << " | "
        << md_opt(measured.upload.b_pct) << " | "
        << md_opt(measured.upload.p_pct) << " |\n";
  }

  // ------------------------------------------------------------ Figure 1
  out << "\n## Figure 1 — geographical breakdown (percent)\n\n"
      << "| App | CC | peers | RX bytes | TX bytes |\n|---|---|---|---|---|\n";
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& report = reports[i];
    if (!report) {
      out << "| " << app_name(i) << " |" << missing_cells(4) << '\n';
      continue;
    }
    for (const auto& share : report->geo) {
      out << "| " << app_name(i) << " | "
          << (share.cc.known() ? share.cc.to_string() : std::string{"*"})
          << " | " << md(share.peer_pct) << " | " << md(share.rx_bytes_pct)
          << " | " << md(share.tx_bytes_pct) << " |\n";
    }
  }

  // ------------------------------------------------------------ Figure 2
  out << "\n## Figure 2 — intra/inter-AS probe traffic ratio R\n\n"
      << "Same-subnet pairs excluded per §IV-B; the with-LAN column shows "
         "the raw diagonal dominance.\n\n"
      << "| App | paper R | ours R | ours incl. LAN pairs |\n"
      << "|---|---|---|---|\n";
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string paper_ratio = md(paper_fig2_ratio(app_name(i)), 2);
    const auto& report = reports[i];
    if (!report) {
      out << "| " << app_name(i) << " | " << paper_ratio << " |"
          << missing_cells(2) << '\n';
      continue;
    }
    const auto& matrix = report->matrix;
    out << "| " << app_name(i) << " | " << paper_ratio << " | "
        << md(matrix.intra_inter_ratio, 2) << " | "
        << md(matrix.intra_inter_ratio_with_lan, 2) << " |\n";
  }
  if (popular) {
    out << "| PPLive-Popular | (strongest locality) | "
        << md(popular->intra_inter_ratio, 2) << " | "
        << md(popular->intra_inter_ratio_with_lan, 2) << " |\n";
  } else {
    out << "| PPLive-Popular | (strongest locality) |" << missing_cells(2)
        << '\n';
  }

  out << "\n---\nGenerated by `peerscope reproduce`. Every number above is "
         "deterministic for the given seed.\n";

  try {
    util::write_file_atomic(options.output, out.str());
  } catch (const std::exception& error) {
    std::cerr << "reproduce: cannot write " << options.output << ": "
              << error.what() << '\n';
    return 1;
  }
  std::cerr << "reproduce: wrote " << options.output << '\n';
  // The claims need every run, so only a complete batch is checked.
  const auto& pplive = reports[0];
  const auto& sopcast = reports[1];
  const auto& tvants = reports[2];
  if (pplive && sopcast && tvants && popular) {
    print_claims(aware::evaluate_claims(*pplive, *sopcast, *tvants, *popular));
  }
  return outcome.complete() ? 0 : kExitPartialSuccess;
}

}  // namespace peerscope::tools
