#include "aware/report.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "net/prefix.hpp"

#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace peerscope::aware {

ExperimentSummary summarize(const ExperimentObservations& data,
                            const ContributorConfig& cfg) {
  ExperimentSummary s;
  if (data.per_probe.empty()) return s;

  util::OnlineStats rx_rate, tx_rate, all_peers, contrib_rx, contrib_tx;
  std::unordered_set<net::Ipv4Addr> observed;
  const double seconds = data.duration.seconds();

  for (const auto& observations : data.per_probe) {
    std::uint64_t rx_bytes = 0, tx_bytes = 0, n_rx = 0, n_tx = 0;
    for (const auto& obs : observations) {
      rx_bytes += obs.rx_bytes;
      tx_bytes += obs.tx_bytes;
      if (is_rx_contributor(obs, cfg)) ++n_rx;
      if (is_tx_contributor(obs, cfg)) ++n_tx;
      observed.insert(obs.remote);
    }
    if (seconds > 0) {
      rx_rate.add(static_cast<double>(rx_bytes) * 8.0 / seconds / 1e3);
      tx_rate.add(static_cast<double>(tx_bytes) * 8.0 / seconds / 1e3);
    }
    all_peers.add(static_cast<double>(observations.size()));
    contrib_rx.add(static_cast<double>(n_rx));
    contrib_tx.add(static_cast<double>(n_tx));
  }

  s.rx_kbps_mean = rx_rate.mean();
  s.rx_kbps_max = rx_rate.max();
  s.tx_kbps_mean = tx_rate.mean();
  s.tx_kbps_max = tx_rate.max();
  s.all_peers_mean = all_peers.mean();
  s.all_peers_max = static_cast<std::uint64_t>(all_peers.max());
  s.contrib_rx_mean = contrib_rx.mean();
  s.contrib_rx_max = static_cast<std::uint64_t>(contrib_rx.max());
  s.contrib_tx_mean = contrib_tx.mean();
  s.contrib_tx_max = static_cast<std::uint64_t>(contrib_tx.max());
  s.observed_total = observed.size();
  if (obs::enabled()) {
    // Classification work done, not distinct peers: repeated summarize
    // calls over the same data count again (like packets, not gauges).
    obs::counter("aware.contributors_rx_classified")
        .add(static_cast<std::uint64_t>(contrib_rx.sum()));
    obs::counter("aware.contributors_tx_classified")
        .add(static_cast<std::uint64_t>(contrib_tx.sum()));
    obs::counter("aware.peers_observed").add(s.observed_total);
  }
  return s;
}

SelfBias self_bias(const ExperimentObservations& data,
                   const ContributorConfig& cfg) {
  std::uint64_t contrib_napa_peers = 0, contrib_peers = 0;
  std::uint64_t contrib_napa_bytes = 0, contrib_bytes = 0;
  std::uint64_t all_napa_peers = 0, all_peers = 0;
  std::uint64_t all_napa_bytes = 0, all_bytes = 0;

  for (const auto& observations : data.per_probe) {
    for (const auto& obs : observations) {
      const std::uint64_t bytes = obs.rx_bytes + obs.tx_bytes;
      ++all_peers;
      all_bytes += bytes;
      if (obs.remote_is_napa) {
        ++all_napa_peers;
        all_napa_bytes += bytes;
      }
      if (is_contributor(obs, cfg)) {
        ++contrib_peers;
        contrib_bytes += bytes;
        if (obs.remote_is_napa) {
          ++contrib_napa_peers;
          contrib_napa_bytes += bytes;
        }
      }
    }
  }

  auto pct = [](std::uint64_t part, std::uint64_t total) {
    return total == 0
               ? 0.0
               : 100.0 * static_cast<double>(part) / static_cast<double>(total);
  };
  return {pct(contrib_napa_peers, contrib_peers),
          pct(contrib_napa_bytes, contrib_bytes),
          pct(all_napa_peers, all_peers), pct(all_napa_bytes, all_bytes)};
}

namespace {

std::optional<double> counts_peer_pct(const PreferenceCounts& c) {
  if (c.peers_total() == 0) return std::nullopt;
  return c.peer_pct();
}
std::optional<double> counts_byte_pct(const PreferenceCounts& c) {
  if (c.peers_total() == 0) return std::nullopt;
  return c.byte_pct();
}

AwarenessCell evaluate_cell(const ExperimentObservations& data,
                            const Partition& partition, Dir dir,
                            const ContributorConfig& contributor) {
  PreferenceCounts all;
  PreferenceCounts non_napa;
  for (const auto& observations : data.per_probe) {
    PreferenceOptions opt;
    opt.dir = dir;
    opt.contributor = contributor;
    opt.exclude_napa = false;
    all.merge(evaluate_preference(observations, partition, opt));
    opt.exclude_napa = true;
    non_napa.merge(evaluate_preference(observations, partition, opt));
  }
  AwarenessCell cell;
  cell.p_pct = counts_peer_pct(all);
  cell.b_pct = counts_byte_pct(all);
  cell.p_prime_pct = counts_peer_pct(non_napa);
  cell.b_prime_pct = counts_byte_pct(non_napa);
  if (obs::enabled()) {
    obs::counter("aware.cells_evaluated").add();
    obs::counter("aware.partition_preferred").add(all.peers_pref);
    obs::counter("aware.partition_other").add(all.peers_nonpref);
    obs::counter("aware.partition_unevaluable").add(all.peers_unevaluable);
  }
  return cell;
}

}  // namespace

std::vector<AwarenessRow> awareness_table(const ExperimentObservations& data,
                                          const AwarenessConfig& cfg) {
  std::vector<AwarenessRow> rows;
  const Metric metrics[] = {Metric::kBw, Metric::kAs, Metric::kCc,
                            Metric::kNet, Metric::kHop};
  for (const Metric metric : metrics) {
    Partition partition;
    switch (metric) {
      case Metric::kBw:
        partition = bw_partition(cfg.bw);
        break;
      case Metric::kHop:
        partition = hop_partition(cfg.hop);
        break;
      default:
        partition = make_partition(metric);
        break;
    }
    AwarenessRow row;
    row.metric = metric;
    row.download = evaluate_cell(data, partition, Dir::kDownload,
                                 cfg.contributor);
    if (metric == Metric::kBw) {
      // The packet-pair signal only exists for peers that sent us
      // video, so BW is download-only (paper §III-C directionality).
      row.upload = {};
    } else {
      row.upload =
          evaluate_cell(data, partition, Dir::kUpload, cfg.contributor);
    }
    if (metric == Metric::kNet) {
      // "The set of peers in the same subnet includes only NAPA-WINE
      // peers, so that P' = ∅" (paper §IV-C): the testbed's subnets
      // contain no third-party hosts, so the non-NAPA statistic is
      // structurally empty and printed "-".
      row.download.p_prime_pct.reset();
      row.download.b_prime_pct.reset();
      row.upload.p_prime_pct.reset();
      row.upload.b_prime_pct.reset();
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<GeoShare> geo_breakdown(const ExperimentObservations& data) {
  struct Tally {
    std::uint64_t peers = 0, rx = 0, tx = 0;
  };
  std::unordered_map<net::CountryCode, Tally> tallies;
  Tally total;

  for (const auto& observations : data.per_probe) {
    for (const auto& obs : observations) {
      Tally& t = tallies[obs.remote_cc];
      ++t.peers;
      t.rx += obs.rx_bytes;
      t.tx += obs.tx_bytes;
      ++total.peers;
      total.rx += obs.rx_bytes;
      total.tx += obs.tx_bytes;
    }
  }

  const net::CountryCode highlighted[] = {net::kChina, net::kHungary,
                                          net::kItaly, net::kFrance,
                                          net::kPoland};
  auto pct = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0
               ? 0.0
               : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
  };

  std::vector<GeoShare> out;
  Tally rest = total;
  for (const auto cc : highlighted) {
    const Tally t = tallies.contains(cc) ? tallies.at(cc) : Tally{};
    out.push_back({cc, pct(t.peers, total.peers), pct(t.rx, total.rx),
                   pct(t.tx, total.tx)});
    rest.peers -= t.peers;
    rest.rx -= t.rx;
    rest.tx -= t.tx;
  }
  out.push_back({net::CountryCode{}, pct(rest.peers, total.peers),
                 pct(rest.rx, total.rx), pct(rest.tx, total.tx)});
  return out;
}

AsMatrix as_traffic_matrix(const ExperimentObservations& data) {
  // Institution ASes that host high-bandwidth probes, in first-seen
  // order (stable axis labels).
  std::vector<net::AsId> ases;
  for (const auto& probe : data.probes) {
    if (!probe.high_bw) continue;
    if (std::find(ases.begin(), ases.end(), probe.as) == ases.end()) {
      ases.push_back(probe.as);
    }
  }
  std::sort(ases.begin(), ases.end());

  auto as_index = [&ases](net::AsId as) -> std::optional<std::size_t> {
    const auto it = std::find(ases.begin(), ases.end(), as);
    if (it == ases.end()) return std::nullopt;
    return static_cast<std::size_t>(it - ases.begin());
  };

  // High-bw probe address -> AS index for the receiver side.
  std::unordered_map<net::Ipv4Addr, std::size_t> probe_as_index;
  for (const auto& probe : data.probes) {
    if (!probe.high_bw) continue;
    if (const auto idx = as_index(probe.as)) {
      probe_as_index.emplace(probe.addr, *idx);
    }
  }

  const std::size_t n = ases.size();
  std::vector<double> sums(n * n, 0.0);       // all probe pairs
  std::vector<double> sums_wan(n * n, 0.0);   // same-subnet pairs excluded

  // Denominators: every ordered pair of distinct high-bw probes counts,
  // including pairs that exchanged nothing (they dilute the average).
  // Same-subnet (hop-0) pairs are tallied separately so R can exclude
  // them the way the paper's §IV-B discussion does.
  std::vector<std::uint64_t> pairs(n * n, 0);
  std::vector<std::uint64_t> pairs_wan(n * n, 0);
  for (const auto& a : data.probes) {
    if (!a.high_bw) continue;
    const auto ia = as_index(a.as);
    if (!ia) continue;
    for (const auto& b : data.probes) {
      if (!b.high_bw || a.addr == b.addr) continue;
      const auto ib = as_index(b.as);
      if (!ib) continue;
      ++pairs[*ia * n + *ib];
      if (!net::same_subnet24(a.addr, b.addr)) {
        ++pairs_wan[*ia * n + *ib];
      }
    }
  }

  for (std::size_t pi = 0; pi < data.per_probe.size(); ++pi) {
    const ProbeMeta& probe = data.probes[pi];
    if (!probe.high_bw) continue;
    const auto src = as_index(probe.as);
    if (!src) continue;
    for (const auto& obs : data.per_probe[pi]) {
      const auto it = probe_as_index.find(obs.remote);
      if (it == probe_as_index.end()) continue;
      const std::size_t cell = *src * n + it->second;
      sums[cell] += static_cast<double>(obs.tx_bytes);
      if (!obs.same_subnet) {
        sums_wan[cell] += static_cast<double>(obs.tx_bytes);
      }
    }
  }

  AsMatrix matrix;
  matrix.ases = ases;
  matrix.mean_bytes.assign(n * n, 0.0);
  double intra_sum = 0, inter_sum = 0, intra_sum_wan = 0;
  std::uint64_t intra_n = 0, inter_n = 0, intra_n_wan = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t cell = i * n + j;
      if (pairs[cell] > 0) {
        matrix.mean_bytes[cell] =
            sums[cell] / static_cast<double>(pairs[cell]);
      }
      if (i == j) {
        intra_sum += sums[cell];
        intra_n += pairs[cell];
        intra_sum_wan += sums_wan[cell];
        intra_n_wan += pairs_wan[cell];
      } else {
        inter_sum += sums[cell];
        inter_n += pairs[cell];
      }
    }
  }
  const double inter_mean =
      inter_n ? inter_sum / static_cast<double>(inter_n) : 0.0;
  const double intra_mean =
      intra_n ? intra_sum / static_cast<double>(intra_n) : 0.0;
  const double intra_mean_wan =
      intra_n_wan ? intra_sum_wan / static_cast<double>(intra_n_wan) : 0.0;
  matrix.intra_inter_ratio_with_lan =
      inter_mean > 0 ? intra_mean / inter_mean : 0.0;
  matrix.intra_inter_ratio =
      inter_mean > 0 ? intra_mean_wan / inter_mean : 0.0;
  return matrix;
}

AppReport app_report(const ExperimentObservations& data) {
  return {summarize(data), self_bias(data), awareness_table(data),
          geo_breakdown(data), as_traffic_matrix(data)};
}

}  // namespace peerscope::aware
