#include "stats_util.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({7}, 99), 7);
}

TEST(PercentileTest, HighestPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(200), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
  // The guarantee itself, at every size: the samples strictly above the
  // chosen nearest rank number at least ten.
  for (size_t n = 20; n < 3000; ++n) {
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
    const double p = HighestSupportedPercentile(n);
    const double at = Percentile(v, p);
    size_t beyond = 0;
    for (const double x : v) beyond += x > at ? 1 : 0;
    EXPECT_GE(beyond, 10u) << n;
  }
}

TEST(SelfTimeTest, DisjointChildren) {
  EXPECT_DOUBLE_EQ(SelfTime({0, 100}, {{10, 20}, {30, 60}}), 60);
  EXPECT_DOUBLE_EQ(SelfTime({0, 100}, {}), 100);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // Two parallel workers over [10, 50] and [30, 70]: covered 60, not 80.
  EXPECT_DOUBLE_EQ(SelfTime({0, 100}, {{30, 70}, {10, 50}}), 40);
  // A child nested inside another adds nothing.
  EXPECT_DOUBLE_EQ(SelfTime({0, 100}, {{10, 90}, {20, 30}}), 20);
  // Touching intervals merge; an empty child is ignored.
  EXPECT_DOUBLE_EQ(SelfTime({0, 100}, {{0, 50}, {50, 100}, {60, 60}}), 0);
}

TEST(SelfTimeTest, ChildrenAreClippedToTheParent) {
  EXPECT_DOUBLE_EQ(SelfTime({10, 20}, {{0, 15}, {18, 40}}), 3);
  EXPECT_DOUBLE_EQ(SelfTime({10, 20}, {{30, 40}}), 10);
}

TEST(LayerSumTest, WithinTolerance) {
  // 4% of a 1 ms request unattributed: inside the 5% tolerance.
  EXPECT_TRUE(CheckLayerSum(1000, 960).ok);
  // 6% is not.
  const LayerSum off = CheckLayerSum(1000, 940);
  EXPECT_FALSE(off.ok);
  EXPECT_DOUBLE_EQ(off.unattributed_us, 60);
  // Short requests get the absolute floor: 20 us of a 100 us request.
  EXPECT_TRUE(CheckLayerSum(100, 80).ok);
  EXPECT_FALSE(CheckLayerSum(100, 70).ok);
}

TEST(LayerSumTest, LayersMayNotExceedTheWall) {
  EXPECT_TRUE(CheckLayerSum(1000, 1000).ok);
  EXPECT_FALSE(CheckLayerSum(1000, 1001).ok);
}

}  // namespace
}  // namespace perfbench
