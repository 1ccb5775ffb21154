#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace peerscope::util {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 42.0);
  EXPECT_EQ(s.max(), 42.0);
  EXPECT_EQ(s.sum(), 42.0);
}

TEST(OnlineStats, KnownSeries) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of the series is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  Rng rng{3};
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.normal(5, 3));

  OnlineStats whole;
  for (const double v : values) whole.add(v);

  for (const std::size_t split : {0u, 1u, 100u, 250u, 499u, 500u}) {
    OnlineStats left, right;
    for (std::size_t i = 0; i < values.size(); ++i) {
      (i < split ? left : right).add(values[i]);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
    EXPECT_EQ(left.min(), whole.min());
    EXPECT_EQ(left.max(), whole.max());
  }
}

TEST(OnlineStats, MergeWithEmptyIsNoop) {
  OnlineStats a;
  a.add(1.0);
  a.add(3.0);
  OnlineStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.mean(), 2.0);
}

TEST(Percentile, Median) {
  std::vector<double> odd{5, 1, 3};
  EXPECT_EQ(percentile_inplace(odd, 0.5), 3.0);
  std::vector<double> even{4, 1, 3, 2};
  EXPECT_EQ(percentile_inplace(even, 0.5), 2.5);
}

TEST(Percentile, Extremes) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_EQ(percentile_inplace(v, 0.0), 10.0);
  EXPECT_EQ(percentile_inplace(v, 1.0), 40.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile_inplace(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(percentile_inplace(v, 0.75), 7.5);
}

TEST(Percentile, RejectsBadInput) {
  std::vector<double> empty;
  EXPECT_THROW((void)percentile_inplace(empty, 0.5), std::invalid_argument);
  std::vector<double> v{1.0};
  EXPECT_THROW((void)percentile_inplace(v, -0.1), std::invalid_argument);
  EXPECT_THROW((void)percentile_inplace(v, 1.1), std::invalid_argument);
}

TEST(Percentage, Basics) {
  EXPECT_DOUBLE_EQ(percentage(1, 3), 25.0);
  EXPECT_DOUBLE_EQ(percentage(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(percentage(5, 0), 100.0);
  EXPECT_DOUBLE_EQ(percentage(0, 0), 0.0);
}

}  // namespace
}  // namespace peerscope::util
