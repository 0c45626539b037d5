#include "stats/meters.h"

#include <gtest/gtest.h>

namespace orbit::stats {
namespace {

TEST(LoadTracker, TracksPerServerCounts) {
  LoadTracker lt(4);
  lt.Add(0, 10);
  lt.Add(1, 20);
  lt.Add(2, 40);
  lt.Add(3, 40);
  EXPECT_EQ(lt.total(), 110u);
  EXPECT_EQ(lt.min_load(), 10u);
  EXPECT_EQ(lt.max_load(), 40u);
  EXPECT_DOUBLE_EQ(lt.BalancingEfficiency(), 0.25);
}

TEST(LoadTracker, PerfectBalanceIsOne) {
  LoadTracker lt(3);
  for (size_t s = 0; s < 3; ++s) lt.Add(s, 7);
  EXPECT_DOUBLE_EQ(lt.BalancingEfficiency(), 1.0);
}

TEST(LoadTracker, EmptyIsDefinedAsBalanced) {
  LoadTracker lt(3);
  EXPECT_DOUBLE_EQ(lt.BalancingEfficiency(), 1.0);
}

TEST(LoadTracker, ResetZeroes) {
  LoadTracker lt(2);
  lt.Add(0, 5);
  lt.Reset();
  EXPECT_EQ(lt.total(), 0u);
}

TEST(LoadTracker, OutOfRangeThrows) {
  LoadTracker lt(2);
  EXPECT_THROW(lt.Add(2), std::out_of_range);
}

}  // namespace
}  // namespace orbit::stats
