#include "exp/extensions.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "aware/bandwidth.hpp"
#include "aware/preference.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace peerscope::exp {

namespace {

constexpr std::uint64_t kSeed = 42;
// Rows of awareness_table().
constexpr std::size_t kBwRow = 0, kAsRow = 1;

std::string num(double v, int precision = 1) {
  return util::TextTable::num(v, precision);
}

/// `format(item)` for every item, comma-separated.
template <typename Range, typename Format = std::identity>
std::string join(const Range& items, Format format = {}) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += ", ";
    out += format(item);
  }
  return out;
}

/// An extension claim: expected to hold, so it carries no deviation.
aware::Claim claim(std::string_view id, std::string_view statement,
                   std::string value, bool holds) {
  return {id, statement, std::move(value), holds, {}};
}

RunSpec make_spec(p2p::SystemProfile profile, std::int64_t seconds,
                  std::uint64_t seed = kSeed) {
  RunSpec spec;
  spec.profile = std::move(profile);
  spec.seed = seed;
  spec.duration = util::SimTime::seconds(seconds);
  return spec;
}

/// PPLive, SopCast and TVAnts, the report's row order.
constexpr std::size_t kApps = 3;
std::array<RunSpec, kApps> three_apps(std::int64_t seconds) {
  return {make_spec(p2p::SystemProfile::pplive(), seconds),
          make_spec(p2p::SystemProfile::sopcast(), seconds),
          make_spec(p2p::SystemProfile::tvants(), seconds)};
}

/// Figure 2's intra/inter-AS ratio R of each application.
using Ratios = std::array<double, kApps>;

Ratios ratios(std::span<const RunResult> apps) {
  Ratios r{};
  for (std::size_t app = 0; app < kApps; ++app) {
    r[app] = aware::as_traffic_matrix(apps[app].observations).intra_inter_ratio;
  }
  return r;
}

/// TVAnts keeps a clear intra-AS preference and stays the most
/// network-aware application.
bool tvants_leads(const Ratios& r) {
  return r[2] > 1.5 && r[2] > r[1] && r[2] > r[0];
}

}  // namespace

std::vector<aware::Claim> ablation_claims(const net::AsTopology& topo,
                                          util::ThreadPool& pool) {
  constexpr double kSameAs[] = {0.0, 0.7, 1.4, 2.8, 5.6, 11.2};
  constexpr std::uint64_t kSeedsPerWeight = 3;
  constexpr double kBandwidth[] = {0.0, 0.25, 0.5, 1.0, 2.0};
  constexpr double kDiscoveryAsBias[] = {0.0, 0.02, 0.05, 0.1};
  const auto base = [] {
    RunSpec spec = make_spec(p2p::SystemProfile::tvants(), 120);
    spec.profile.population.background_peers = 520;
    return spec;
  };

  std::vector<RunSpec> specs;
  for (const double weight : kSameAs) {
    for (std::uint64_t offset = 0; offset < kSeedsPerWeight; ++offset) {
      RunSpec spec = base();
      spec.profile.select.same_as = weight;
      spec.seed = kSeed + offset;
      specs.push_back(std::move(spec));
    }
  }
  for (const double weight : kBandwidth) {
    // Isolate BW: no locality bias in this sweep.
    RunSpec spec = base();
    spec.profile.select.bandwidth = weight;
    spec.profile.select.same_as = 0.0;
    spec.profile.discovery_as_bias = 0.0;
    specs.push_back(std::move(spec));
  }
  for (const double bias : kDiscoveryAsBias) {
    // Isolate discovery from scheduling.
    RunSpec spec = base();
    spec.profile.discovery_as_bias = bias;
    spec.profile.select.same_as = 0.0;
    specs.push_back(std::move(spec));
  }
  const auto results = run_experiments(topo, specs, pool);
  auto next = results.begin();

  // The same-AS contributor pool is small, so single runs are noisy:
  // each weight aggregates its preference counts over three seeds.
  std::vector<double> as_bytes;
  for (std::size_t w = 0; w < std::size(kSameAs); ++w) {
    aware::PreferenceCounts counts;
    aware::PreferenceOptions options;
    options.exclude_napa = true;
    for (std::uint64_t s = 0; s < kSeedsPerWeight; ++s, ++next) {
      for (const auto& per_probe : next->observations.per_probe) {
        counts.merge(aware::evaluate_preference(
            per_probe, aware::as_partition(), options));
      }
    }
    as_bytes.push_back(counts.byte_pct());
  }
  bool monotone = true;
  for (std::size_t w = 1; w < as_bytes.size(); ++w) {
    if (as_bytes[w] < as_bytes[w - 1] - 2.0) monotone = false;  // noise
  }

  std::vector<double> bw_bytes;
  for (std::size_t w = 0; w < std::size(kBandwidth); ++w, ++next) {
    const auto rows = aware::awareness_table(next->observations);
    bw_bytes.push_back(rows[kBwRow].download.b_prime_pct.value_or(0.0));
  }
  const auto [bw_min, bw_max] =
      std::minmax_element(bw_bytes.begin() + 1, bw_bytes.end());

  std::vector<double> as_peers;
  for (std::size_t b = 0; b < std::size(kDiscoveryAsBias); ++b, ++next) {
    const auto rows = aware::awareness_table(next->observations);
    as_peers.push_back(rows[kAsRow].download.p_prime_pct.value_or(0.0));
  }

  return {
      claim("ext.ablation.as_weight",
            "the recovered AS byte preference rises with the planted same-AS "
            "scheduling weight (never falls by more than 2 points; AS B'D at "
            "weight 11.2 above 1.8x its value at weight 0)",
            num(as_bytes.front()) + "% -> " + num(as_bytes.back()) + "%",
            monotone && as_bytes.back() > 1.8 * as_bytes.front()),
      // The finding is robustness: with the selection weight off,
      // high-bandwidth peers still carry nearly all bytes, because
      // capacity physics and their earlier chunk availability dominate.
      claim("ext.ablation.bw_emergent",
            "the BW byte preference persists with the bandwidth selection "
            "weight off (BW B'D > 90 at weight 0)",
            num(bw_bytes.front()) + "% at weight 0 (" + num(*bw_min) + "-" +
                num(*bw_max) + "% at weights 0.25-2)",
            bw_bytes.front() > 90.0),
      claim("ext.ablation.discovery_bias",
            "the discovery AS bias moves the peer-wise AS preference (AS P'D "
            "at bias 0.1 above bias 0)",
            "P'D " + join(as_peers, [](double p) { return num(p); }) +
                "% at bias 0, 0.02, 0.05, 0.1",
            as_peers.back() > as_peers.front()),
  };
}

std::vector<aware::Claim> sensitivity_claims(const net::AsTopology& topo,
                                             util::ThreadPool& pool) {
  // AS B'D of `profile` over seeds 42-46, one run per seed.
  const auto as_bytes = [&](const p2p::SystemProfile& profile) {
    std::vector<RunSpec> specs;
    for (std::uint64_t seed = kSeed; seed < kSeed + 5; ++seed) {
      specs.push_back(make_spec(profile, 150, seed));
    }
    util::OnlineStats stats;
    for (const auto& result : run_experiments(topo, specs, pool)) {
      const auto rows = aware::awareness_table(result.observations);
      if (const auto& b_prime = rows[kAsRow].download.b_prime_pct) {
        stats.add(*b_prime);
      }
    }
    return stats;
  };
  const util::OnlineStats tvants = as_bytes(p2p::SystemProfile::tvants());
  const util::OnlineStats sopcast = as_bytes(p2p::SystemProfile::sopcast());
  return {
      claim("ext.sensitivity.tvants_as_separation",
            "over seeds 42-46, TVAnts' mean AS B'D exceeds SopCast's by more "
            "than 2 standard deviations of SopCast's",
            num(tvants.mean()) + " vs " + num(sopcast.mean()) + "±" +
                num(sopcast.stddev()),
            tvants.mean() > sopcast.mean() + 2 * sopcast.stddev()),
  };
}

std::vector<aware::Claim> degradation_claims(const net::AsTopology& topo,
                                             util::ThreadPool& pool) {
  struct Level {
    sim::ImpairmentSpec impairment;
    p2p::ChurnSpec churn;
  };
  std::vector<Level> levels(4);  // clean first
  Level& mild = levels[1];  // loss 1% burst 3
  mild.impairment.loss_rate = 0.01;
  mild.impairment.loss_burst = 3.0;
  Level& medium = levels[2];  // loss 3% + reorder/dup
  medium.impairment.loss_rate = 0.03;
  medium.impairment.loss_burst = 3.0;
  medium.impairment.reorder_rate = 0.005;
  medium.impairment.duplicate_rate = 0.005;
  Level& harsh = levels[3];  // loss 5% + churn + outages
  harsh.impairment.loss_rate = 0.05;
  harsh.impairment.loss_burst = 4.0;
  harsh.impairment.reorder_rate = 0.01;
  harsh.impairment.duplicate_rate = 0.01;
  harsh.impairment.outage_per_s = 0.02;  // one ~200 ms outage per 50 s
  harsh.churn.probe_session_s = 120.0;
  harsh.churn.bg_session_s = 90.0;
  harsh.churn.nat_connect_failure = 0.3;
  harsh.churn.firewall_connect_failure = 0.3;

  std::vector<RunSpec> specs;
  for (const Level& level : levels) {
    for (RunSpec& spec : three_apps(300)) {
      spec.impairment = level.impairment;
      spec.churn = level.churn;
      specs.push_back(std::move(spec));
    }
  }
  const auto results = run_experiments(topo, specs, pool);

  double min_b = 100.0, min_p = 100.0;
  bool ordering = true;
  std::vector<Ratios> r;
  std::vector<std::string> faults;
  bool faults_fired = true;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const std::span<const RunResult> apps{results.data() + i * kApps, kApps};
    // Capture duplication and reordering fabricate near-zero gaps that
    // the plain minimum would read as infinite-capacity paths.
    aware::AwarenessConfig config;
    if (i > 0) config.bw.ipg_discard = 2;
    std::uint64_t timeouts = 0, retries = 0, crashes = 0;
    for (const RunResult& app : apps) {
      const auto rows = aware::awareness_table(app.observations, config);
      min_b = std::min(min_b, rows[kBwRow].download.b_prime_pct.value_or(0.0));
      min_p = std::min(min_p, rows[kBwRow].download.p_prime_pct.value_or(0.0));
      timeouts += app.counters.timeouts;
      retries += app.counters.chunks_retried;
      crashes += app.counters.probe_crashes;
    }
    r.push_back(ratios(apps));
    if (!tvants_leads(r.back())) ordering = false;
    if (i == 0) continue;
    if (timeouts == 0 && retries == 0 && crashes == 0) faults_fired = false;
    faults.push_back(std::to_string(timeouts) + "/" + std::to_string(retries) +
                     "/" + std::to_string(crashes));
  }
  // SopCast < 1.5 is the clean reproduction's check
  // (fig2.sopcast_no_intra_as); a ratio near 1 wobbles across the line
  // once loss thins the byte counts, so impaired levels check only the
  // ordering.
  const double sopcast_clean = r.front()[1];

  return {
      claim("ext.degradation.bw_strong",
            "every system keeps its BW preference (BW B'D > 90, P'D > 65) at "
            "every level, clean through 5% bursty loss with churn and outages",
            "min B'D/P'D " + num(min_b) + "/" + num(min_p),
            min_b > 90.0 && min_p > 65.0),
      claim("ext.degradation.fig2_ordering",
            "TVAnts keeps the largest intra-AS ratio, R > 1.5, at every level, "
            "and SopCast's clean R is below 1.5",
            "TVAnts R " +
                join(r, [](const Ratios& level) { return num(level[2], 2); }) +
                "; SopCast clean R " + num(sopcast_clean, 2),
            ordering && sopcast_clean < 1.5),
      claim("ext.degradation.faults_fired",
            "fault injection is visibly active at every impaired level "
            "(timeouts, retries or probe crashes)",
            "timeouts/retries/crashes " + join(faults),
            faults_fired),
  };
}

std::vector<aware::Claim> discovery_claims(const net::AsTopology& topo,
                                           util::ThreadPool& pool) {
  constexpr std::int64_t kSeconds = 300;
  // The outage window sits mid-run: it starts a third in and lasts a
  // third, long enough that every swarm exhausts its tracker retries
  // and must fail over, with a third of the run left to recover in.
  const auto outage_start = util::SimTime::seconds(kSeconds / 3);
  const auto outage_len = util::SimTime::seconds(kSeconds / 3);
  const auto deadline = util::SimTime::seconds(30);

  struct Scenario {
    const char* name;
    p2p::DiscoverySpec discovery;
  };
  std::vector<Scenario> scenarios;
  p2p::DiscoverySpec tracker;
  tracker.primary = p2p::DiscoveryBackendKind::kTracker;
  tracker.rejoin_deadline = deadline;
  scenarios.push_back({"tracker", tracker});

  p2p::DiscoverySpec dht = tracker;
  dht.fallback = p2p::DiscoveryBackendKind::kDht;
  dht.tracker_outage_start = outage_start;
  dht.tracker_outage_duration = outage_len;
  scenarios.push_back({"outage -> dht", dht});

  p2p::DiscoverySpec gossip = dht;
  gossip.fallback = p2p::DiscoveryBackendKind::kGossip;
  gossip.nat.enabled = true;
  scenarios.push_back({"outage -> gossip + nat", gossip});

  p2p::DiscoverySpec crowd = dht;
  crowd.flash_crowd_at = util::SimTime::seconds(kSeconds / 6);
  crowd.flash_crowd_arrivals = 60;
  crowd.session_tail_alpha = 1.5;
  scenarios.push_back({"outage + flash crowd", crowd});

  std::vector<std::string> missed;
  std::vector<std::optional<Ratios>> r;
  std::vector<std::string> failovers;
  bool failover_fired = true;
  for (const Scenario& scenario : scenarios) {
    std::array<RunSpec, kApps> specs = three_apps(kSeconds);
    for (RunSpec& spec : specs) spec.discovery = scenario.discovery;
    std::vector<RunResult> results;
    try {
      results = run_experiments(topo, specs, pool);
    } catch (const DiscoveryDegraded& e) {
      missed.push_back(std::string{scenario.name} + ": " + e.what());
      r.emplace_back();
      if (scenario.discovery.tracker_outages()) {
        failover_fired = false;
        failovers.emplace_back("-");
      }
      continue;
    }
    r.emplace_back(ratios(results));
    if (!scenario.discovery.tracker_outages()) continue;
    std::uint64_t count = 0, tracker_failures = 0;
    for (const RunResult& app : results) {
      count += app.counters.discovery.failovers;
      tracker_failures += app.counters.discovery.tracker_failures;
    }
    if (count == 0 || tracker_failures == 0) failover_fired = false;
    failovers.push_back(std::to_string(count) + "/" +
                        std::to_string(tracker_failures));
  }
  const bool ordering = std::all_of(r.begin(), r.end(), [](const auto& s) {
    return s && tvants_leads(*s);
  });

  return {
      claim("ext.discovery.rejoined",
            "every swarm re-joins within the 30 s SLO in every discovery "
            "scenario",
            missed.empty() ? std::to_string(scenarios.size()) + " of " +
                                 std::to_string(scenarios.size()) + " scenarios"
                           : join(missed),
            missed.empty()),
      claim("ext.discovery.failover_fired",
            "failover fires in every tracker-outage scenario (failovers and "
            "tracker failures > 0)",
            "failovers/tracker failures " + join(failovers),
            failover_fired),
      claim("ext.discovery.fig2_ordering",
            "TVAnts keeps the largest intra-AS ratio, R > 1.5, in every "
            "discovery scenario",
            "TVAnts R " + join(r,
                               [](const std::optional<Ratios>& s) {
                                 return s ? num((*s)[2], 2) : std::string{"-"};
                               }),
            ordering),
  };
}

std::vector<aware::Claim> nextgen_claims(const net::AsTopology& topo,
                                         util::ThreadPool& pool) {
  constexpr std::int64_t kSeconds = 150;
  const RunSpec specs[] = {
      make_spec(p2p::SystemProfile::sopcast(), kSeconds),
      make_spec(p2p::SystemProfile::napawine_prototype(), kSeconds)};
  const auto results = run_experiments(topo, specs, pool);

  // Network friendliness (traffic localisation, path length) and user
  // QoS (chunk delivery) of one run.
  struct Friendliness {
    double intra_as_bytes_pct = 0;
    double byte_weighted_hops = 0;
    double delivery_ratio = 0;
  };
  const auto measure = [](const RunSpec& spec, const RunResult& result) {
    Friendliness f;
    std::uint64_t bytes = 0, same_as = 0;
    double hop_bytes = 0;
    for (const auto& per_probe : result.observations.per_probe) {
      for (const auto& obs : per_probe) {
        bytes += obs.rx_video_bytes;
        if (obs.remote_as == obs.probe_as) same_as += obs.rx_video_bytes;
        if (obs.rx_hops >= 0) {
          hop_bytes += static_cast<double>(obs.rx_video_bytes) *
                       static_cast<double>(obs.rx_hops);
        }
      }
    }
    if (bytes > 0) {
      f.intra_as_bytes_pct =
          100.0 * static_cast<double>(same_as) / static_cast<double>(bytes);
      f.byte_weighted_hops = hop_bytes / static_cast<double>(bytes);
    }
    // Chunks every probe should have fetched over the run.
    const double expected =
        spec.duration.seconds() /
        spec.profile.stream.chunk_interval().seconds() *
        static_cast<double>(result.observations.probes.size());
    f.delivery_ratio =
        static_cast<double>(result.counters.chunks_delivered) / expected;
    return f;
  };
  const Friendliness base = measure(specs[0], results[0]);
  const Friendliness next = measure(specs[1], results[1]);

  // 0.5 to 5 ms, i.e. 20 down to 2 Mb/s: between the DSL cluster
  // (< 1 Mb/s) and the ethernet/fiber cluster (>= 20 Mb/s).
  const std::int64_t thresholds_ns[] = {500'000, 1'000'000, 2'000'000,
                                        5'000'000};
  const auto sweep =
      aware::bw_threshold_sweep(results[0].observations, thresholds_ns);
  const bool plateau =
      std::all_of(sweep.begin(), sweep.end(), [&](const auto& point) {
        return point.byte_pct == sweep.front().byte_pct &&
               point.peer_pct == sweep.front().peer_pct;
      });

  return {
      claim("ext.nextgen.localisation",
            "the NAPA-WINE prototype more than doubles SopCast's intra-AS "
            "share of download bytes",
            num(base.intra_as_bytes_pct) + "% -> " +
                num(next.intra_as_bytes_pct) + "%",
            next.intra_as_bytes_pct > 2 * base.intra_as_bytes_pct),
      claim("ext.nextgen.shorter_paths",
            "the prototype shortens the byte-weighted mean path",
            num(base.byte_weighted_hops) + " -> " +
                num(next.byte_weighted_hops) + " hops",
            next.byte_weighted_hops < base.byte_weighted_hops),
      claim("ext.nextgen.qos",
            "the prototype's chunk delivery ratio is at most 0.02 below "
            "SopCast's",
            num(base.delivery_ratio, 3) + " -> " + num(next.delivery_ratio, 3),
            next.delivery_ratio > base.delivery_ratio - 0.02),
      claim("ext.bw_threshold_plateau",
            "SopCast's BW B'D/P'D is the same at every IPG threshold from 0.5 "
            "to 5 ms, so the paper's 1 ms (10 Mb/s) sits on a plateau",
            "B'D/P'D " +
                join(sweep,
                     [](const aware::ThresholdPoint& point) {
                       return num(point.byte_pct) + "/" + num(point.peer_pct);
                     }) +
                " at 0.5, 1, 2, 5 ms",
            plateau),
  };
}

}  // namespace peerscope::exp
