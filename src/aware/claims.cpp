#include "aware/claims.hpp"

#include <cmath>
#include <optional>
#include <span>

#include "util/table.hpp"

namespace peerscope::aware {

namespace {

// Rows of awareness_table() and entries of geo_breakdown().
constexpr std::size_t kBwRow = 0, kAsRow = 1, kHopRow = 4;
constexpr std::size_t kChinaShare = 0, kEuropeFirst = 1, kEuropeLast = 4;

constexpr std::string_view kDeviation2 =
    "EXPERIMENTS.md known deviation 2: PPLive's AS byte bias emerges "
    "from bandwidth-following here instead of an explicit rule, and "
    "that mechanism saturates near 2.4x";
constexpr std::string_view kDeviation3 =
    "EXPERIMENTS.md known deviation 3: the global bandwidth-distance "
    "correlation pulls SopCast's bytes slightly towards nearer peers";
constexpr std::string_view kDeviation4 =
    "EXPERIMENTS.md known deviation 4: same-AS background downloaders "
    "would need longer session persistence than the model gives them";

struct NamedApp {
  std::string_view name;
  const AppReport* app;
};

std::string num(double v, int precision = 1) {
  return util::TextTable::num(v, precision);
}

std::string num(const std::optional<double>& v) {
  return v ? num(*v) : std::string{"-"};
}

/// "PPLive <f(PPLive)>, SopCast <f(SopCast)>, ..." over `apps`.
template <typename Format>
std::string per_app(std::span<const NamedApp> apps, Format format) {
  std::string out;
  for (const NamedApp& named : apps) {
    if (!out.empty()) out += ", ";
    out += std::string{named.name} + " " + format(*named.app);
  }
  return out;
}

const AwarenessCell& download(const AppReport& app, std::size_t row) {
  return app.awareness[row].download;
}

/// "B'D/P'D" of one cell, e.g. "97.1/85.1".
std::string primes(const AwarenessCell& cell) {
  return num(cell.b_prime_pct) + "/" + num(cell.p_prime_pct);
}

/// HU+IT+FR+PL: the four probe countries of Figure 1.
struct EuropeShare {
  double peer_pct = 0;
  double rx_bytes_pct = 0;
};

EuropeShare europe(const AppReport& app) {
  EuropeShare share;
  for (std::size_t i = kEuropeFirst; i <= kEuropeLast; ++i) {
    share.peer_pct += app.geo[i].peer_pct;
    share.rx_bytes_pct += app.geo[i].rx_bytes_pct;
  }
  return share;
}

}  // namespace

std::vector<Claim> evaluate_claims(const AppReport& pplive,
                                   const AppReport& sopcast,
                                   const AppReport& tvants,
                                   const AsMatrix& pplive_popular) {
  const NamedApp named[] = {
      {"PPLive", &pplive}, {"SopCast", &sopcast}, {"TVAnts", &tvants}};
  const std::span<const NamedApp> all{named};

  std::vector<Claim> claims;
  const auto add = [&claims](std::string_view id, std::string_view statement,
                             bool holds, std::string value,
                             std::string_view deviation = {}) {
    claims.push_back({id, statement, std::move(value), holds, deviation});
  };

  // ------------------------------------------------------------ Table II
  const auto peers = [](const AppReport& app) {
    return app.summary.all_peers_mean;
  };
  add("table2.peers_order", "peers per probe: PPLive > SopCast > TVAnts",
      peers(pplive) > peers(sopcast) && peers(sopcast) > peers(tvants),
      per_app(all, [&](const AppReport& app) { return num(peers(app), 0); }));
  const ExperimentSummary& rates = pplive.summary;
  add("table2.pplive_upload",
      "PPLive uploads more than 3x what it downloads (TX > 3 RX)",
      rates.tx_kbps_mean > 3 * rates.rx_kbps_mean,
      "TX " + num(rates.tx_kbps_mean, 0) + " vs RX " +
          num(rates.rx_kbps_mean, 0) + " kbps");

  // ----------------------------------------------------------- Table III
  // PPLive's peer share is a scale artifact (46 probes against a
  // 1/12-scale contributor set, EXPERIMENTS.md), so the byte-over-peer
  // property is checked on the two systems whose swarms are near scale.
  const auto bytes_over_peers = [](const AppReport& app) {
    return app.bias.contributors_bytes_pct >= app.bias.contributors_peer_pct;
  };
  const auto self_shares = [](const AppReport& app) {
    return num(app.bias.contributors_bytes_pct, 2) + "/" +
           num(app.bias.contributors_peer_pct, 2);
  };
  add("table3.bytes_over_peers",
      "the probes' share of contributor bytes exceeds their share of "
      "contributors (SopCast, TVAnts)",
      bytes_over_peers(sopcast) && bytes_over_peers(tvants),
      "bytes/peers %: " + per_app(all.subspan(1), self_shares));
  const auto self_bytes = [](const AppReport& app) {
    return app.bias.contributors_bytes_pct;
  };
  add("table3.self_bias_order",
      "the probes' share of contributor bytes: TVAnts > SopCast > PPLive",
      self_bytes(tvants) > self_bytes(sopcast) &&
          self_bytes(sopcast) > self_bytes(pplive),
      per_app(all, [&](const AppReport& app) {
        return num(self_bytes(app), 2);
      }));

  // ------------------------------------------------------------ Table IV
  const auto bw_strong = [](const AppReport& app) {
    const AwarenessCell& bw = download(app, kBwRow);
    return bw.b_prime_pct && *bw.b_prime_pct > 90 && bw.p_prime_pct &&
           *bw.p_prime_pct > 65;
  };
  const auto bw_primes = [](const AppReport& app) {
    return primes(download(app, kBwRow));
  };
  add("table4.bw_strong",
      "every system prefers high-bandwidth peers (BW B'D > 90, P'D > 65)",
      bw_strong(pplive) && bw_strong(sopcast) && bw_strong(tvants),
      "B'D/P'D: " + per_app(all, bw_primes));

  const auto& tvants_as = download(tvants, kAsRow).p_prime_pct;
  const auto& sopcast_as = download(sopcast, kAsRow).p_prime_pct;
  add("table4.tvants_as_discovery",
      "TVAnts discovers same-AS peers more often than SopCast (AS P'D)",
      tvants_as && sopcast_as && *tvants_as > *sopcast_as,
      num(tvants_as) + " vs " + num(sopcast_as));

  const auto hop_flat = [](const AppReport& app) {
    const AwarenessCell& hop = download(app, kHopRow);
    return hop.b_prime_pct && hop.p_prime_pct &&
           std::abs(*hop.b_prime_pct - *hop.p_prime_pct) < 12.0;
  };
  const auto hop_primes = [](const AppReport& app) {
    return primes(download(app, kHopRow));
  };
  add("table4.hop_flat",
      "PPLive and SopCast are not HOP-aware (|HOP B'D - P'D| < 12)",
      hop_flat(pplive) && hop_flat(sopcast),
      "B'D/P'D: " + per_app(all.first(2), hop_primes));

  const AwarenessCell& pplive_as = download(pplive, kAsRow);
  const double amplification =
      pplive_as.b_prime_pct && pplive_as.p_prime_pct &&
              *pplive_as.p_prime_pct > 0
          ? *pplive_as.b_prime_pct / *pplive_as.p_prime_pct
          : 0.0;
  add("table4.pplive_as_amplification",
      "PPLive's share of same-AS bytes is at least 5x its share of same-AS "
      "peers (AS B'D/P'D >= 5, half the paper's 10.8)",
      amplification >= 5.0,
      num(amplification, 2) + " (" + primes(pplive_as) + ")", kDeviation2);

  const AwarenessCell& sopcast_hop = download(sopcast, kHopRow);
  add("table4.sopcast_hop_inversion",
      "SopCast draws a smaller share of bytes than of peers from nearby "
      "hosts (HOP B'D < P'D, paper 29.0 < 40.7)",
      sopcast_hop.b_prime_pct && sopcast_hop.p_prime_pct &&
          *sopcast_hop.b_prime_pct < *sopcast_hop.p_prime_pct,
      num(sopcast_hop.b_prime_pct) + " vs " + num(sopcast_hop.p_prime_pct),
      kDeviation3);

  const auto& tvants_upload_as = tvants.awareness[kAsRow].upload.b_prime_pct;
  add("table4.tvants_upload_as",
      "TVAnts' same-AS share of upload bytes is at least half the paper's "
      "(AS B'U >= 5.8, paper 11.6)",
      tvants_upload_as && *tvants_upload_as >= 5.8, num(tvants_upload_as),
      kDeviation4);

  // ------------------------------------------------------------ Figure 1
  const auto cn_plurality = [](const AppReport& app) {
    for (std::size_t i = kChinaShare + 1; i < app.geo.size(); ++i) {
      if (app.geo[kChinaShare].peer_pct <= app.geo[i].peer_pct) return false;
    }
    return true;
  };
  const auto cn_peers = [](const AppReport& app) {
    return num(app.geo[kChinaShare].peer_pct);
  };
  add("fig1.cn_plurality",
      "CN holds the plurality of contacted peers in every system",
      cn_plurality(pplive) && cn_plurality(sopcast) && cn_plurality(tvants),
      "CN peers %: " + per_app(all, cn_peers));

  const auto europe_bytes = [](const AppReport& app) {
    const EuropeShare share = europe(app);
    return share.rx_bytes_pct > share.peer_pct;
  };
  const auto europe_shares = [](const AppReport& app) {
    const EuropeShare share = europe(app);
    return num(share.rx_bytes_pct) + "/" + num(share.peer_pct);
  };
  add("fig1.europe_bytes_over_peers",
      "HU+IT+FR+PL carry a larger share of RX bytes than of peers in every "
      "system",
      europe_bytes(pplive) && europe_bytes(sopcast) && europe_bytes(tvants),
      "RX bytes/peers %: " + per_app(all, europe_shares));

  // ------------------------------------------------------------ Figure 2
  const double r_tvants = tvants.matrix.intra_inter_ratio;
  const double r_sopcast = sopcast.matrix.intra_inter_ratio;
  add("fig2.tvants_intra_as",
      "TVAnts prefers intra-AS probe traffic (R > 1.5, paper 1.93)",
      r_tvants > 1.5, "R " + num(r_tvants, 2));
  add("fig2.sopcast_no_intra_as",
      "SopCast shows no intra-AS preference (R < 1.5, paper 0.2)",
      r_sopcast < 1.5, "R " + num(r_sopcast, 2));
  add("fig2.tvants_over_sopcast", "R(TVAnts) > R(SopCast)",
      r_tvants > r_sopcast, num(r_tvants, 2) + " vs " + num(r_sopcast, 2));
  const AsMatrix& lan = pplive.matrix;
  add("fig2.pplive_lan",
      "PPLive's intra-AS traffic is mostly same-subnet (with-LAN R > 3x "
      "the subnet-excluded R)",
      lan.intra_inter_ratio_with_lan > 3 * lan.intra_inter_ratio,
      num(lan.intra_inter_ratio_with_lan, 2) + " vs " +
          num(lan.intra_inter_ratio, 2));
  add("fig2.popular_lan",
      "PPLive-Popular has a stronger LAN-local intra-AS bias than PPLive "
      "(with-LAN R)",
      pplive_popular.intra_inter_ratio_with_lan >
          lan.intra_inter_ratio_with_lan,
      num(pplive_popular.intra_inter_ratio_with_lan, 2) + " vs " +
          num(lan.intra_inter_ratio_with_lan, 2));
  return claims;
}

}  // namespace peerscope::aware
