// The extension claims as a contract: every row of every sweep in
// exp/extensions.hpp holds at seed 42. One test per sweep, so each
// sweep's simulations run once, in their own ctest process.
#include "exp/extensions.hpp"

#include <set>
#include <string>

#include <gtest/gtest.h>

namespace peerscope::exp {
namespace {

using Sweep = std::vector<aware::Claim> (*)(const net::AsTopology&,
                                            util::ThreadPool&);

/// Runs the sweep at seed 42; every row must have a unique `ext.` id,
/// a statement and a value, and must hold. Returns the ids.
std::set<std::string> expect_all_hold(Sweep sweep) {
  const net::AsTopology topo = net::make_reference_topology();
  util::ThreadPool pool;
  std::set<std::string> ids;
  for (const aware::Claim& claim : sweep(topo, pool)) {
    EXPECT_TRUE(ids.emplace(claim.id).second) << "duplicate id " << claim.id;
    EXPECT_TRUE(claim.id.starts_with("ext.")) << claim.id;
    EXPECT_FALSE(claim.statement.empty()) << claim.id;
    EXPECT_FALSE(claim.value.empty()) << claim.id;
    EXPECT_TRUE(claim.deviation.empty()) << claim.id;
    EXPECT_TRUE(claim.holds) << claim.id << " fails: " << claim.statement
                             << " [" << claim.value << "]";
  }
  return ids;
}

TEST(ExtensionClaims, AblationRecoversPlantedBiases) {
  const std::set<std::string> expected{"ext.ablation.as_weight",
                                       "ext.ablation.bw_emergent",
                                       "ext.ablation.discovery_bias"};
  EXPECT_EQ(expect_all_hold(ablation_claims), expected);
}

TEST(ExtensionClaims, SensitivitySeparatesTvantsFromSopcast) {
  const std::set<std::string> expected{"ext.sensitivity.tvants_as_separation"};
  EXPECT_EQ(expect_all_hold(sensitivity_claims), expected);
}

TEST(ExtensionClaims, DegradationKeepsTheConclusions) {
  const std::set<std::string> expected{"ext.degradation.bw_strong",
                                       "ext.degradation.fig2_ordering",
                                       "ext.degradation.faults_fired"};
  EXPECT_EQ(expect_all_hold(degradation_claims), expected);
}

TEST(ExtensionClaims, DiscoveryOutagesKeepTheConclusions) {
  const std::set<std::string> expected{"ext.discovery.rejoined",
                                       "ext.discovery.failover_fired",
                                       "ext.discovery.fig2_ordering"};
  EXPECT_EQ(expect_all_hold(discovery_claims), expected);
}

TEST(ExtensionClaims, NextgenLocalisesAndThresholdPlateaus) {
  const std::set<std::string> expected{
      "ext.nextgen.localisation", "ext.nextgen.shorter_paths",
      "ext.nextgen.qos", "ext.bw_threshold_plateau"};
  EXPECT_EQ(expect_all_hold(nextgen_claims), expected);
}

}  // namespace
}  // namespace peerscope::exp
