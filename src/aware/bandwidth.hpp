// Sensitivity of the BW classification to its threshold: Table IV's
// BW row as a function of the inter-packet-gap boundary, the natural
// ablation of §III-B. Claim ext.bw_threshold_plateau
// (exp/extensions.hpp) checks that the paper's 1 ms choice sits on a
// plateau.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "aware/contributor.hpp"
#include "aware/experiment.hpp"

namespace peerscope::aware {

/// One point of the threshold sensitivity sweep.
struct ThresholdPoint {
  std::int64_t threshold_ns = 0;
  /// Peer-wise / byte-wise download preference at this threshold
  /// (non-NAPA contributors), i.e. Table IV's B'D/P'D as a function of
  /// the classification boundary.
  double peer_pct = 0;
  double byte_pct = 0;
};

/// Evaluates the BW preference at each candidate threshold.
[[nodiscard]] std::vector<ThresholdPoint> bw_threshold_sweep(
    const ExperimentObservations& data,
    std::span<const std::int64_t> thresholds_ns,
    const ContributorConfig& contributor = {});

}  // namespace peerscope::aware
