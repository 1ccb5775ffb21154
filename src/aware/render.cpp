#include "aware/render.hpp"

#include <sstream>
#include <stdexcept>

#include "aware/paper.hpp"
#include "util/table.hpp"

namespace peerscope::aware {

namespace {

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
  throw std::logic_error("render: an application has no Figure 2 ratio");
}

/// Dash row fragment for an application whose run produced no data:
/// `cells` dash cells joined in table syntax.
std::string missing_cells(int cells) {
  std::string out;
  for (int i = 0; i < cells; ++i) out += " – |";
  return out;
}

}  // namespace

std::string render_reproduction(const Reproduction& batch) {
  const auto& reports = batch.apps;
  const auto app_name = [](std::size_t i) {
    return std::string_view{kPaperTable2[i].app};
  };

  std::ostringstream out;
  out << "# PeerScope reproduction report\n\n"
      << "Paper: *Network Awareness of P2P Live Streaming Applications* "
         "(IPDPS 2009).\n"
      << "Configuration: " << batch.seconds << " simulated seconds, seed "
      << batch.seed << ", Table I testbed, reference topology. Counts are "
      << "scaled (see DESIGN.md §6); percentages and ratios compare "
      << "directly.\n";

  if (!batch.missing.empty()) {
    out << "\n> **Partial results.** ";
    for (const auto& run : batch.missing) out << run << "; ";
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
  if (batch.popular) {
    out << "| PPLive-Popular | (strongest locality) | "
        << md(batch.popular->intra_inter_ratio, 2) << " | "
        << md(batch.popular->intra_inter_ratio_with_lan, 2) << " |\n";
  } else {
    out << "| PPLive-Popular | (strongest locality) |" << missing_cells(2)
        << '\n';
  }

  out << "\n---\nGenerated by `peerscope reproduce`. Every number above is "
         "deterministic for the given seed.\n";
  return out.str();
}

std::string render_app(std::string_view app, const AppReport& report) {
  using util::TextTable;
  std::ostringstream out;

  const auto& summary = report.summary;
  TextTable overview{{"metric", "mean", "max"}};
  overview.add_row({"stream RX [kbps]", TextTable::num(summary.rx_kbps_mean, 0),
                    TextTable::num(summary.rx_kbps_max, 0)});
  overview.add_row({"stream TX [kbps]", TextTable::num(summary.tx_kbps_mean, 0),
                    TextTable::num(summary.tx_kbps_max, 0)});
  overview.add_row({"peers / probe", TextTable::num(summary.all_peers_mean, 0),
                    TextTable::count(summary.all_peers_max)});
  overview.add_row({"RX contributors / probe",
                    TextTable::num(summary.contrib_rx_mean, 0),
                    TextTable::count(summary.contrib_rx_max)});
  overview.add_row({"TX contributors / probe",
                    TextTable::num(summary.contrib_tx_mean, 0),
                    TextTable::count(summary.contrib_tx_max)});
  overview.add_row(
      {"observed peers", TextTable::count(summary.observed_total), ""});
  out << '\n' << app << " overview:\n" << overview.render();

  out << "\nself-induced bias (contributors): peers "
      << TextTable::num(report.bias.contributors_peer_pct) << "%, bytes "
      << TextTable::num(report.bias.contributors_bytes_pct) << "%\n";

  TextTable awareness{
      {"net", "B'D%", "P'D%", "BD%", "PD%", "B'U%", "P'U%", "BU%", "PU%"}};
  const auto cell = [](const std::optional<double>& v) {
    return v ? TextTable::num(*v) : std::string{"-"};
  };
  for (const auto& row : report.awareness) {
    awareness.add_row({to_string(row.metric), cell(row.download.b_prime_pct),
                       cell(row.download.p_prime_pct),
                       cell(row.download.b_pct), cell(row.download.p_pct),
                       cell(row.upload.b_prime_pct),
                       cell(row.upload.p_prime_pct), cell(row.upload.b_pct),
                       cell(row.upload.p_pct)});
  }
  out << "\nnetwork awareness:\n" << awareness.render();

  // Figure 2: mean kB a high-bw probe sent to one in each AS, with the
  // intra-AS diagonal bracketed.
  const auto& matrix = report.matrix;
  std::vector<std::string> header{std::string{app} + " [kB]"};
  for (const auto as : matrix.ases) header.push_back("to " + as.to_string());
  TextTable exchanged{header};
  for (std::size_t i = 0; i < matrix.ases.size(); ++i) {
    std::vector<std::string> row{"from " + matrix.ases[i].to_string()};
    for (std::size_t j = 0; j < matrix.ases.size(); ++j) {
      const std::string kb = TextTable::num(matrix.at(i, j) / 1e3, 0);
      row.push_back(i == j ? "[" + kb + "]" : kb);
    }
    exchanged.add_row(std::move(row));
  }
  out << "\nmean exchanged data among high-bw probes:\n" << exchanged.render()
      << "R (intra/inter, same-subnet pairs excluded as in §IV-B) = "
      << TextTable::num(matrix.intra_inter_ratio, 2)
      << "   [including LAN pairs: "
      << TextTable::num(matrix.intra_inter_ratio_with_lan, 2) << "]\n";
  return out.str();
}

}  // namespace peerscope::aware
