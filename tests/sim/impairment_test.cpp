// Impairment model unit tests: the Gilbert–Elliott channel must honour
// its stationary loss rate, degenerate to the legacy Bernoulli draw at
// loss_burst <= 1, and never consume RNG when disabled; outage windows
// must be deterministic, hash-scheduled and RNG-free.
#include "sim/impairment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace peerscope::sim {
namespace {

using util::Rng;
using util::SimTime;

TEST(ImpairmentSpec, DefaultIsDisabled) {
  const ImpairmentSpec spec;
  EXPECT_FALSE(spec.enabled());
  EXPECT_FALSE(spec.has_loss());
  EXPECT_FALSE(spec.has_outage());
}

TEST(ImpairmentSpec, AnyKnobEnables) {
  ImpairmentSpec spec;
  spec.reorder_rate = 0.01;
  EXPECT_TRUE(spec.enabled());
  spec = ImpairmentSpec{};
  spec.duplicate_rate = 0.01;
  EXPECT_TRUE(spec.enabled());
  spec = ImpairmentSpec{};
  spec.outage_per_s = 0.1;
  EXPECT_TRUE(spec.enabled());
  EXPECT_TRUE(spec.has_outage());
}

TEST(GilbertElliott, FlatLossMatchesLegacyBernoulliDrawForDraw) {
  // loss_burst <= 1 must reproduce the exact legacy `rng.chance(rate)`
  // sequence — the byte-identical-reproduction guarantee hangs on it.
  ImpairmentSpec spec;
  spec.loss_rate = 0.07;
  Rng a{1234};
  Rng b{1234};
  GilbertElliott channel;
  for (int i = 0; i < 20000; ++i) {
    EXPECT_EQ(channel.lose(spec, a), b.chance(0.07)) << "draw " << i;
  }
  EXPECT_FALSE(channel.in_bad_state());
}

TEST(GilbertElliott, ZeroLossConsumesNoRng) {
  const ImpairmentSpec spec;  // loss_rate == 0
  Rng a{99};
  Rng b{99};
  GilbertElliott channel;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(channel.lose(spec, a));
  }
  // The two streams must still be in lockstep.
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.uniform01(), b.uniform01());
}

TEST(GilbertElliott, StationaryLossRateIsHonoured) {
  ImpairmentSpec spec;
  spec.loss_rate = 0.05;
  spec.loss_burst = 4.0;
  Rng rng{7};
  GilbertElliott channel;
  int lost = 0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    if (channel.lose(spec, rng)) ++lost;
  }
  const double observed = static_cast<double>(lost) / kDraws;
  EXPECT_NEAR(observed, 0.05, 0.01);
}

TEST(GilbertElliott, LongRunRateMatchesSteadyStateAcrossTheKnobGrid) {
  // Statistical contract of the two-state chain: for every
  // (loss_rate, loss_burst) combination the long-run empirical drop
  // frequency must converge to the configured stationary rate, and the
  // mean observed burst length to the configured loss_burst. Fixed
  // seeds per combination keep the test deterministic; 400k draws make
  // the sampling error a fraction of the tolerances below.
  const double rates[] = {0.01, 0.05, 0.10};
  const double bursts[] = {1.5, 3.0, 8.0};
  constexpr int kDraws = 400000;
  std::uint64_t seed = 1000;
  for (const double rate : rates) {
    for (const double burst : bursts) {
      ImpairmentSpec spec;
      spec.loss_rate = rate;
      spec.loss_burst = burst;
      Rng rng{seed++};
      GilbertElliott channel;
      int lost = 0, burst_count = 0;
      bool prev = false;
      for (int i = 0; i < kDraws; ++i) {
        const bool drop = channel.lose(spec, rng);
        if (drop) {
          ++lost;
          if (!prev) ++burst_count;  // a new burst starts
        }
        prev = drop;
      }
      const double observed = static_cast<double>(lost) / kDraws;
      const double tol = std::max(0.15 * rate, 0.002);
      EXPECT_NEAR(observed, rate, tol)
          << "rate " << rate << " burst " << burst;
      ASSERT_GT(burst_count, 0) << "rate " << rate << " burst " << burst;
      const double mean_burst = static_cast<double>(lost) / burst_count;
      EXPECT_NEAR(mean_burst, burst, 0.35 * burst)
          << "rate " << rate << " burst " << burst;
    }
  }
}

TEST(GilbertElliott, BurstLossesAreCorrelated) {
  // With a mean burst length of 6, a loss is far more likely to follow
  // a loss than under independent drops at the same stationary rate.
  ImpairmentSpec spec;
  spec.loss_rate = 0.05;
  spec.loss_burst = 6.0;
  Rng rng{21};
  GilbertElliott channel;
  int losses = 0, losses_after_loss = 0;
  bool prev = false;
  for (int i = 0; i < 300000; ++i) {
    const bool lost = channel.lose(spec, rng);
    if (prev) {
      if (lost) ++losses_after_loss;
      ++losses;
    }
    prev = lost;
  }
  ASSERT_GT(losses, 0);
  const double p_loss_given_loss =
      static_cast<double>(losses_after_loss) / losses;
  // 1 - 1/burst = 0.833 in the bad state; flat would give 0.05.
  EXPECT_GT(p_loss_given_loss, 0.5);
}

TEST(Outage, DisabledNeverFires) {
  const ImpairmentSpec spec;
  for (int s = 0; s < 100; ++s) {
    EXPECT_FALSE(in_outage(spec, 42, SimTime::seconds(s)));
  }
}

TEST(Outage, DeterministicAndRngFree) {
  ImpairmentSpec spec;
  spec.outage_per_s = 0.1;  // one 200 ms window per 10 s epoch
  bool any_down = false, any_up = false;
  for (int ms = 0; ms < 60000; ms += 10) {
    const bool down = in_outage(spec, 7, SimTime::millis(ms));
    EXPECT_EQ(down, in_outage(spec, 7, SimTime::millis(ms)));  // replayable
    any_down |= down;
    any_up |= !down;
  }
  EXPECT_TRUE(any_down);
  EXPECT_TRUE(any_up);
}

TEST(Outage, DistinctLinksGetDistinctSchedules) {
  ImpairmentSpec spec;
  spec.outage_per_s = 0.2;
  int differing = 0;
  for (int ms = 0; ms < 60000; ms += 10) {
    if (in_outage(spec, 1, SimTime::millis(ms)) !=
        in_outage(spec, 2, SimTime::millis(ms))) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(Outage, DutyCycleMatchesConfiguredRate) {
  ImpairmentSpec spec;
  spec.outage_per_s = 0.5;  // 200 ms down per 2 s epoch -> 10% downtime
  int down = 0;
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (in_outage(spec, 11, SimTime::millis(i))) ++down;
  }
  const double duty = static_cast<double>(down) / kSamples;
  EXPECT_NEAR(duty, 0.10, 0.03);
}

TEST(Outage, WindowLongerThanEpochIsAlwaysDown) {
  ImpairmentSpec spec;
  spec.outage_per_s = 10.0;                       // 100 ms epochs
  spec.outage_duration = SimTime::millis(500);    // longer than the epoch
  for (int ms = 0; ms < 5000; ms += 7) {
    EXPECT_TRUE(in_outage(spec, 3, SimTime::millis(ms)));
  }
}

}  // namespace
}  // namespace peerscope::sim
