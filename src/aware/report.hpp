// Report assembly: the aggregated statistics behind the paper's
// Tables II-IV and Figures 1-2, computed from ExperimentObservations.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "aware/experiment.hpp"
#include "aware/partition.hpp"
#include "aware/preference.hpp"

namespace peerscope::aware {

// ---------------------------------------------------------------- Table II

struct ExperimentSummary {
  // Application-level stream rates per probe, kb/s.
  double rx_kbps_mean = 0, rx_kbps_max = 0;
  double tx_kbps_mean = 0, tx_kbps_max = 0;
  // Distinct peers seen per probe.
  double all_peers_mean = 0;
  std::uint64_t all_peers_max = 0;
  // Contributing peers per probe.
  double contrib_rx_mean = 0;
  std::uint64_t contrib_rx_max = 0;
  double contrib_tx_mean = 0;
  std::uint64_t contrib_tx_max = 0;
  /// Union of distinct remote peers over all probes ("total number of
  /// observed peers" of §II).
  std::uint64_t observed_total = 0;
};

[[nodiscard]] ExperimentSummary summarize(const ExperimentObservations& data,
                                          const ContributorConfig& cfg = {});

// --------------------------------------------------------------- Table III

struct SelfBias {
  double contributors_peer_pct = 0;
  double contributors_bytes_pct = 0;
  double all_peers_peer_pct = 0;
  double all_peers_bytes_pct = 0;
};

[[nodiscard]] SelfBias self_bias(const ExperimentObservations& data,
                                 const ContributorConfig& cfg = {});

// ---------------------------------------------------------------- Table IV

struct AwarenessCell {
  /// Non-NAPA statistics (P', B'); absent when the filtered set is
  /// structurally empty (NET: only probes share subnets) or the metric
  /// is not measurable in this direction (BW upload).
  std::optional<double> b_prime_pct, p_prime_pct;
  std::optional<double> b_pct, p_pct;
};

struct AwarenessRow {
  Metric metric{};
  AwarenessCell download;
  AwarenessCell upload;
};

struct AwarenessConfig {
  ContributorConfig contributor;
  BwConfig bw;
  HopConfig hop;
};

/// Computes the full Table IV block for one application: all five
/// metrics x {download, upload} x {non-NAPA, all contributors}.
[[nodiscard]] std::vector<AwarenessRow> awareness_table(
    const ExperimentObservations& data, const AwarenessConfig& cfg = {});

// --------------------------------------------------------------- Figure 1

struct GeoShare {
  net::CountryCode cc;      // unknown() entry = the "*" bucket
  double peer_pct = 0;
  double rx_bytes_pct = 0;
  double tx_bytes_pct = 0;
};

/// Breakdown over {CN, HU, IT, FR, PL, *} like Figure 1; shares are
/// percentages of all observed peers / bytes.
[[nodiscard]] std::vector<GeoShare> geo_breakdown(
    const ExperimentObservations& data);

// --------------------------------------------------------------- Figure 2

struct AsMatrix {
  std::vector<net::AsId> ases;  // institution ASes with high-bw probes
  /// mean_bytes[i * ases.size() + j]: average bytes transferred from a
  /// high-bw probe in ases[i] to a high-bw probe in ases[j].
  std::vector<double> mean_bytes;
  /// R: mean intra-AS / mean inter-AS pair traffic, with same-subnet
  /// (hop-0) pairs excluded — the paper's §IV-B statistic ("excluding
  /// the traffic exchanged among peers in the same SubNet"): 1.93
  /// TVAnts, 0.98 PPLive, 0.2 SopCast.
  double intra_inter_ratio = 0;
  /// Same ratio with same-subnet pairs included (what the raw matrix
  /// diagonal shows; dominated by LAN traffic for PPLive).
  double intra_inter_ratio_with_lan = 0;

  [[nodiscard]] double at(std::size_t i, std::size_t j) const {
    return mean_bytes[i * ases.size() + j];
  }
};

[[nodiscard]] AsMatrix as_traffic_matrix(const ExperimentObservations& data);

// ------------------------------------------------------------ one application

/// Everything Tables II-IV and Figures 1-2 report for one application:
/// what `peerscope reproduce` renders and aware/claims.hpp checks.
struct AppReport {
  ExperimentSummary summary;
  SelfBias bias;
  std::vector<AwarenessRow> awareness;  // BW, AS, CC, NET, HOP
  std::vector<GeoShare> geo;            // CN, HU, IT, FR, PL, *
  AsMatrix matrix;
};

[[nodiscard]] AppReport app_report(const ExperimentObservations& data);

}  // namespace peerscope::aware
