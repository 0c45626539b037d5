#include "stats/time_series.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace orbit::stats {
namespace {

TEST(TimeSeries, BinsByTime) {
  TimeSeries ts(100);
  ts.Add(0);
  ts.Add(99);
  ts.Add(100);
  ts.Add(250, 2.5);
  EXPECT_EQ(ts.num_bins(), 3u);
  EXPECT_DOUBLE_EQ(ts.bin(0), 2.0);
  EXPECT_DOUBLE_EQ(ts.bin(1), 1.0);
  EXPECT_DOUBLE_EQ(ts.bin(2), 2.5);
}

TEST(TimeSeries, GrowsOnDemand) {
  TimeSeries ts(10);
  ts.Add(1000);
  EXPECT_EQ(ts.num_bins(), 101u);
  for (size_t i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(ts.bin(i), 0.0);
}

TEST(TimeSeries, RejectsBadInputs) {
  EXPECT_THROW(TimeSeries(0), CheckFailure);
  TimeSeries ts(10);
  EXPECT_THROW(ts.Add(-1), CheckFailure);
}

}  // namespace
}  // namespace orbit::stats
