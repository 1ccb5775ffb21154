#include "aware/observation.hpp"

#include <gtest/gtest.h>

#include "sim/packet.hpp"
#include "trace/sink.hpp"

namespace peerscope::aware {
namespace {

using net::Ipv4Addr;
using util::SimTime;

const Ipv4Addr kProbe{20, 0, 0, 10};
const Ipv4Addr kSameSubnet{20, 0, 0, 11};
const Ipv4Addr kSameAs{20, 0, 200, 5};
const Ipv4Addr kForeign{21, 0, 100, 5};

net::NetRegistry make_registry() {
  net::NetRegistry registry;
  registry.announce(*net::Ipv4Prefix::parse("20.0.0.0/16"), net::AsId{2},
                    net::kItaly);
  registry.announce(*net::Ipv4Prefix::parse("21.0.0.0/16"), net::AsId{210},
                    net::kChina);
  return registry;
}

TEST(ExtractObservations, JoinsRegistryAttributes) {
  const auto registry = make_registry();
  trace::ProbeSink sink{kProbe, false};
  sink.signaling_rx(sink.flow(kForeign), SimTime::millis(1), 120, 108);
  sink.signaling_rx(sink.flow(kSameAs), SimTime::millis(2), 120, 121);

  const auto obs =
      extract_observations(sink.flows(), registry, {kProbe, kSameSubnet});
  ASSERT_EQ(obs.size(), 2u);
  for (const auto& o : obs) {
    EXPECT_EQ(o.probe, kProbe);
    EXPECT_EQ(o.probe_as, net::AsId{2});
    EXPECT_EQ(o.probe_cc, net::kItaly);
    if (o.remote == kForeign) {
      EXPECT_EQ(o.remote_as, net::AsId{210});
      EXPECT_EQ(o.remote_cc, net::kChina);
      EXPECT_FALSE(o.same_subnet);
      EXPECT_EQ(o.rx_hops, 128 - 108);
    } else {
      EXPECT_EQ(o.remote_as, net::AsId{2});
      EXPECT_EQ(o.remote_cc, net::kItaly);
      EXPECT_EQ(o.rx_hops, 128 - 121);
    }
    EXPECT_FALSE(o.remote_is_napa);
  }
}

TEST(ExtractObservations, FlagsNapaRemotes) {
  const auto registry = make_registry();
  trace::ProbeSink sink{kProbe, false};
  sink.signaling_rx(sink.flow(kSameSubnet), SimTime::millis(1), 120, 127);
  const auto obs =
      extract_observations(sink.flows(), registry, {kProbe, kSameSubnet});
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_TRUE(obs[0].remote_is_napa);
  EXPECT_TRUE(obs[0].same_subnet);
}

TEST(ExtractObservations, HopsUnknownWithoutRx) {
  const auto registry = make_registry();
  trace::ProbeSink sink{kProbe, false};
  sink.signaling_tx(sink.flow(kForeign), SimTime::millis(1), 120);
  const auto obs = extract_observations(sink.flows(), registry, {});
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_EQ(obs[0].rx_hops, -1);
}

TEST(ExtractObservations, CarriesVolumeAndIpg) {
  const auto registry = make_registry();
  trace::ProbeSink sink{kProbe, false};
  const std::vector<SimTime> arrivals{SimTime::micros(0), SimTime::micros(500),
                                      SimTime::micros(1100)};
  sink.video_train_rx(sink.flow(kForeign), arrivals, 1250, 109);
  sink.video_train_tx(sink.flow(kForeign), arrivals, 1250);

  const auto obs = extract_observations(sink.flows(), registry, {});
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_EQ(obs[0].rx_video_pkts, 3u);
  EXPECT_EQ(obs[0].rx_video_bytes, 3750u);
  EXPECT_EQ(obs[0].tx_video_pkts, 3u);
  ASSERT_TRUE(obs[0].has_min_ipg());
  EXPECT_EQ(obs[0].min_rx_video_ipg_ns, 500'000);
}

TEST(ExtractObservations, UnknownAddressYieldsUnknownAsCc) {
  net::NetRegistry registry;  // empty
  trace::ProbeSink sink{kProbe, false};
  sink.signaling_rx(sink.flow(kForeign), SimTime::millis(1), 120, 100);
  const auto obs = extract_observations(sink.flows(), registry, {});
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_FALSE(obs[0].remote_as.known());
  EXPECT_FALSE(obs[0].remote_cc.known());
}

}  // namespace
}  // namespace peerscope::aware
