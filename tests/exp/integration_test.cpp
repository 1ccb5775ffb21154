// End-to-end validation: the black-box measurement pipeline must
// recover the biases planted in the application profiles, and the
// offline (trace-file) analysis path must agree exactly with the
// online path.
#include <gtest/gtest.h>

#include <filesystem>

#include "aware/report.hpp"
#include "exp/capture.hpp"
#include "exp/runner.hpp"
#include "support/scratch_dir.hpp"

namespace peerscope::exp {
namespace {

using util::SimTime;

const net::AsTopology& topo() {
  static const net::AsTopology t = net::make_reference_topology();
  return t;
}

// Mid-size experiments shared by several assertions (built once).
class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RunSpec tvants;
    tvants.profile = p2p::SystemProfile::tvants();
    tvants.profile.population.background_peers = 400;
    tvants.seed = 42;
    tvants.duration = SimTime::seconds(60);
    tvants_ = new RunResult(run_experiment(topo(), tvants));

    RunSpec sopcast;
    sopcast.profile = p2p::SystemProfile::sopcast();
    sopcast.profile.population.background_peers = 800;
    sopcast.seed = 42;
    sopcast.duration = SimTime::seconds(60);
    sopcast_ = new RunResult(run_experiment(topo(), sopcast));
  }
  static void TearDownTestSuite() {
    delete tvants_;
    delete sopcast_;
    tvants_ = nullptr;
    sopcast_ = nullptr;
  }

  static const RunResult* tvants_;
  static const RunResult* sopcast_;
};

const RunResult* IntegrationTest::tvants_ = nullptr;
const RunResult* IntegrationTest::sopcast_ = nullptr;

TEST_F(IntegrationTest, BandwidthPreferenceRecoveredEverywhere) {
  for (const RunResult* result : {tvants_, sopcast_}) {
    const auto rows = aware::awareness_table(result->observations);
    const auto& bw = rows[0];
    ASSERT_TRUE(bw.download.b_prime_pct.has_value());
    ASSERT_TRUE(bw.download.p_prime_pct.has_value());
    // Strong BW preference: most contributors high-bw, even more of
    // the bytes (paper: P' 83-86, B' 96-98).
    EXPECT_GT(*bw.download.p_prime_pct, 60.0);
    EXPECT_GT(*bw.download.b_prime_pct, 85.0);
    EXPECT_GE(*bw.download.b_prime_pct, *bw.download.p_prime_pct);
  }
}

TEST_F(IntegrationTest, TvantsIsAsAwareSopcastIsNot) {
  const auto tvants_rows = aware::awareness_table(tvants_->observations);
  const auto sopcast_rows = aware::awareness_table(sopcast_->observations);
  const auto& tvants_as = tvants_rows[1].download;
  const auto& sopcast_as = sopcast_rows[1].download;

  // TVAnts finds same-AS peers far above SopCast's base rate and
  // moves disproportionate bytes through them.
  ASSERT_TRUE(tvants_as.p_prime_pct.has_value());
  ASSERT_TRUE(sopcast_as.p_prime_pct.has_value());
  EXPECT_GT(*tvants_as.p_prime_pct, *sopcast_as.p_prime_pct);
  EXPECT_GT(*tvants_as.b_prime_pct, *sopcast_as.b_prime_pct);
  // SopCast: no byte-over-peer amplification (location-blind).
  EXPECT_LT(*sopcast_as.b_prime_pct, *sopcast_as.p_prime_pct + 3.0);
}

TEST_F(IntegrationTest, CcPreferenceIsInducedByAsPreference) {
  // Non-NAPA CC preference tracks the AS preference (no system uses
  // the country explicitly), paper §IV-B.
  const auto rows = aware::awareness_table(tvants_->observations);
  const auto& as_cell = rows[1].download;
  const auto& cc_cell = rows[2].download;
  ASSERT_TRUE(cc_cell.b_prime_pct.has_value());
  EXPECT_GE(*cc_cell.b_prime_pct, *as_cell.b_prime_pct - 1.0);
  EXPECT_LT(*cc_cell.b_prime_pct, *as_cell.b_prime_pct + 15.0);
}

TEST_F(IntegrationTest, NetPreferenceOnlyExistsWithProbes) {
  const auto rows = aware::awareness_table(tvants_->observations);
  const auto& net_cell = rows[3].download;
  // Same-subnet peers are probes only: the non-NAPA statistic is
  // structurally empty (the paper prints "-").
  EXPECT_FALSE(net_cell.p_prime_pct.has_value());
  // With probes included the preference appears.
  ASSERT_TRUE(net_cell.p_pct.has_value());
  EXPECT_GT(*net_cell.b_pct, 0.0);
}

TEST_F(IntegrationTest, SelfInducedBiasVisibleAndFilterable) {
  const aware::SelfBias bias = aware::self_bias(tvants_->observations);
  // Probes exchange disproportionately among themselves: byte share
  // exceeds peer share (Table III).
  EXPECT_GT(bias.contributors_peer_pct, 5.0);
  EXPECT_GT(bias.contributors_bytes_pct, bias.contributors_peer_pct);
}

TEST_F(IntegrationTest, HopMedianNearNineteen) {
  double median_sum = 0;
  std::size_t probes = 0;
  for (const auto& per_probe : tvants_->observations.per_probe) {
    median_sum += aware::median_hops(per_probe);
    ++probes;
  }
  const double median = median_sum / static_cast<double>(probes);
  // The paper measures medians of 18-20 across applications.
  EXPECT_GT(median, 15.0);
  EXPECT_LT(median, 23.0);
}

TEST_F(IntegrationTest, GeoBreakdownIsChinaDominated) {
  const auto shares = aware::geo_breakdown(tvants_->observations);
  ASSERT_EQ(shares.size(), 6u);
  EXPECT_EQ(shares[0].cc, net::kChina);
  // CN has the plurality of peers (Fig. 1)...
  for (std::size_t i = 1; i < shares.size(); ++i) {
    EXPECT_GT(shares[0].peer_pct, shares[i].peer_pct);
  }
  // ...but European countries take a disproportionate byte share:
  // sum of HU/IT/FR/PL byte shares exceeds their peer shares.
  double eu_peers = 0, eu_bytes = 0;
  for (std::size_t i = 1; i <= 4; ++i) {
    eu_peers += shares[i].peer_pct;
    eu_bytes += shares[i].rx_bytes_pct;
  }
  EXPECT_GT(eu_bytes, eu_peers);
}

TEST_F(IntegrationTest, AsMatrixIntraBiasOrdering) {
  const auto tvants_matrix = aware::as_traffic_matrix(tvants_->observations);
  const auto sopcast_matrix =
      aware::as_traffic_matrix(sopcast_->observations);
  // Fig. 2: TVAnts favours intra-AS probe traffic (R ~ 1.9), SopCast
  // does not (R ~ 0.2).
  EXPECT_GT(tvants_matrix.intra_inter_ratio,
            sopcast_matrix.intra_inter_ratio);
  EXPECT_EQ(tvants_matrix.ases.size(), 6u);  // AS1..AS6
}

TEST(OfflinePath, TraceFilesReproduceOnlineAnalysis) {
  // Run a small experiment that writes its capture the way
  // `peerscope run` does, load it back the way `peerscope analyze`
  // does, and compare the full awareness table against the online one.
  RunSpec spec;
  spec.profile = p2p::SystemProfile::tvants();
  spec.profile.population.background_peers = 100;
  spec.seed = 7;
  spec.duration = SimTime::seconds(20);
  spec.keep_records = true;

  const test::ScratchDir dir{"peerscope_integration"};
  const CaptureTarget capture{dir.path()};
  const auto online = run_experiment(topo(), spec, &capture).observations;
  const auto offline = load_capture(capture.dir, /*salvage=*/false).data;

  EXPECT_EQ(offline.app, online.app);
  EXPECT_EQ(offline.duration, online.duration);
  ASSERT_EQ(offline.per_probe.size(), online.per_probe.size());
  const auto online_rows = aware::awareness_table(online);
  const auto offline_rows = aware::awareness_table(offline);
  ASSERT_EQ(online_rows.size(), offline_rows.size());
  for (std::size_t i = 0; i < online_rows.size(); ++i) {
    const auto cmp = [&](const std::optional<double>& a,
                         const std::optional<double>& b) {
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        EXPECT_DOUBLE_EQ(*a, *b);
      }
    };
    cmp(online_rows[i].download.b_pct, offline_rows[i].download.b_pct);
    cmp(online_rows[i].download.p_pct, offline_rows[i].download.p_pct);
    cmp(online_rows[i].download.b_prime_pct,
        offline_rows[i].download.b_prime_pct);
    cmp(online_rows[i].upload.b_pct, offline_rows[i].upload.b_pct);
    cmp(online_rows[i].upload.p_pct, offline_rows[i].upload.p_pct);
  }

  const auto online_bias = aware::self_bias(online);
  const auto offline_bias = aware::self_bias(offline);
  EXPECT_DOUBLE_EQ(online_bias.contributors_bytes_pct,
                   offline_bias.contributors_bytes_pct);
}

TEST(PlantedBiasAblation, StrongerAsWeightMovesMoreBytes) {
  // Methodology validation in miniature: sweep the planted same-AS
  // scheduling weight and confirm the recovered byte preference is
  // monotone in it.
  // Discovery bias off so the scheduling weight is the only planted
  // locality signal; aggregate over seeds (the same-AS contributor set
  // is small at test scale, so single runs are noisy).
  const auto recovered_byte_pref = [](double weight) {
    aware::PreferenceCounts total;
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      RunSpec spec;
      spec.profile = p2p::SystemProfile::tvants();
      spec.profile.population.background_peers = 520;
      spec.profile.select.same_as = weight;
      spec.profile.discovery_as_bias = 0.0;
      spec.seed = seed;
      spec.duration = SimTime::seconds(60);
      const RunResult result = run_experiment(topo(), spec);
      aware::PreferenceOptions opt;
      opt.exclude_napa = true;
      for (const auto& per_probe : result.observations.per_probe) {
        total.merge(aware::evaluate_preference(
            per_probe, aware::as_partition(), opt));
      }
    }
    return total.byte_pct();
  };
  const double off = recovered_byte_pref(0.0);
  const double on = recovered_byte_pref(12.0);
  EXPECT_GT(on, off * 1.3) << "off=" << off << " on=" << on;
}

}  // namespace
}  // namespace peerscope::exp
