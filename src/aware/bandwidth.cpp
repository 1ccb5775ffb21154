#include "aware/bandwidth.hpp"

#include "aware/partition.hpp"
#include "aware/preference.hpp"

namespace peerscope::aware {

std::vector<ThresholdPoint> bw_threshold_sweep(
    const ExperimentObservations& data,
    std::span<const std::int64_t> thresholds_ns,
    const ContributorConfig& contributor) {
  std::vector<ThresholdPoint> out;
  out.reserve(thresholds_ns.size());
  for (const std::int64_t threshold : thresholds_ns) {
    PreferenceCounts counts;
    PreferenceOptions options;
    options.dir = Dir::kDownload;
    options.exclude_napa = true;
    options.contributor = contributor;
    const Partition partition =
        bw_partition(BwConfig{.ipg_threshold_ns = threshold});
    for (const auto& per_probe : data.per_probe) {
      counts.merge(evaluate_preference(per_probe, partition, options));
    }
    out.push_back({threshold, counts.peer_pct(), counts.byte_pct()});
  }
  return out;
}

}  // namespace peerscope::aware
