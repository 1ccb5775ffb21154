// The paper's conclusions as a contract: on the four runs `peerscope
// reproduce` makes at its default scale (seed 42, 300 simulated
// seconds) every claim of aware/claims.hpp lands on its expected
// verdict. Each conclusion holds and each known deviation still fails,
// so a change that flips either fails here.
#include "aware/claims.hpp"

#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "exp/runner.hpp"

namespace peerscope::aware {
namespace {

class ReproductionClaims : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const net::AsTopology topo = net::make_reference_topology();
    const auto specs =
        exp::reproduction_specs(42, util::SimTime::seconds(300));
    util::ThreadPool pool;
    const auto results = exp::run_experiments(topo, specs, pool);
    for (std::size_t i = 0; i < 3; ++i) {
      apps_.push_back(app_report(results[i].observations));
    }
    popular_ = as_traffic_matrix(results[3].observations);
  }

  static std::vector<Claim> evaluate(const AppReport& pplive,
                                     const AppReport& sopcast) {
    return evaluate_claims(pplive, sopcast, apps_[2], popular_);
  }

  static Claim find(const std::vector<Claim>& claims, std::string_view id) {
    for (const auto& claim : claims) {
      if (claim.id == id) return claim;
    }
    throw std::logic_error("no claim " + std::string{id});
  }

  static inline std::vector<AppReport> apps_;  // PPLive, SopCast, TVAnts
  static inline AsMatrix popular_;
};

TEST_F(ReproductionClaims, EveryClaimLandsOnItsExpectedVerdict) {
  const auto claims = evaluate(apps_[0], apps_[1]);
  std::set<std::string_view> ids;
  std::set<std::string_view> deviations;
  for (const auto& claim : claims) {
    EXPECT_TRUE(ids.insert(claim.id).second) << "duplicate id " << claim.id;
    EXPECT_FALSE(claim.statement.empty()) << claim.id;
    EXPECT_FALSE(claim.value.empty()) << claim.id;
    EXPECT_TRUE(claim.as_expected())
        << claim.id << (claim.holds ? " holds" : " fails") << ": "
        << claim.statement << " [" << claim.value << "]"
        << (claim.deviation.empty() ? "" : " — expected to fail: ")
        << claim.deviation;
    if (!claim.deviation.empty()) deviations.insert(claim.id);
  }
  const std::set<std::string_view> known_deviations{
      "table4.pplive_as_amplification", "table4.sopcast_hop_inversion",
      "table4.tvants_upload_as"};
  EXPECT_EQ(claims.size(), 17u);
  EXPECT_EQ(deviations, known_deviations);
}

TEST_F(ReproductionClaims, VerdictsFollowTheMeasurements) {
  // SopCast with a clear intra-AS preference breaks a Figure 2 claim.
  AppReport sopcast = apps_[1];
  sopcast.matrix.intra_inter_ratio = 2.0;
  const Claim flat =
      find(evaluate(apps_[0], sopcast), "fig2.sopcast_no_intra_as");
  EXPECT_FALSE(flat.holds);
  EXPECT_FALSE(flat.as_expected());

  // A paper-sized PPLive AS amplification closes known deviation 2,
  // which is then reported as unexpected too.
  AppReport pplive = apps_[0];
  AwarenessCell& as = pplive.awareness[1].download;
  ASSERT_TRUE(as.p_prime_pct);
  as.b_prime_pct = *as.p_prime_pct * 10.8;
  const Claim amplified =
      find(evaluate(pplive, apps_[1]), "table4.pplive_as_amplification");
  EXPECT_TRUE(amplified.holds);
  EXPECT_FALSE(amplified.as_expected());
}

}  // namespace
}  // namespace peerscope::aware
