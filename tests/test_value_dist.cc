#include "workload/value_dist.h"

#include <gtest/gtest.h>

#include <string>

namespace orbit::wl {
namespace {

TEST(ValueDist, FixedAlwaysReturnsSize) {
  ValueDist d = ValueDist::Fixed(512);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(d.SizeFor("k" + std::to_string(i)), 512u);
  EXPECT_FALSE(d.bimodal());
  EXPECT_EQ(d.fixed_size(), 512u);
  EXPECT_EQ(d.max_size(), 512u);
}

TEST(ValueDist, BimodalIsDeterministicPerKey) {
  ValueDist d = ValueDist::PaperDefault();
  for (int i = 0; i < 100; ++i) {
    const std::string k = "k" + std::to_string(i);
    EXPECT_EQ(d.SizeFor(k), d.SizeFor(k));
  }
}

TEST(ValueDist, BimodalMatchesPaperMix) {
  // §5.1: 82% 64-byte, 18% 1024-byte values.
  ValueDist d = ValueDist::PaperDefault();
  int small = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const uint32_t s = d.SizeFor("key-" + std::to_string(i));
    ASSERT_TRUE(s == 64 || s == 1024);
    if (s == 64) ++small;
  }
  EXPECT_NEAR(static_cast<double>(small) / n, 0.82, 0.01);
  EXPECT_TRUE(d.bimodal());
  EXPECT_EQ(d.small_size(), 64u);
  EXPECT_EQ(d.large_size(), 1024u);
  EXPECT_DOUBLE_EQ(d.p_small(), 0.82);
  EXPECT_EQ(d.max_size(), 1024u);
}

TEST(ValueDist, SeedDecorrelatesAssignments) {
  ValueDist a = ValueDist::Bimodal(64, 1024, 0.5, 1);
  ValueDist b = ValueDist::Bimodal(64, 1024, 0.5, 2);
  int same = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    if (a.SizeFor("k" + std::to_string(i)) ==
        b.SizeFor("k" + std::to_string(i)))
      ++same;
  EXPECT_NEAR(static_cast<double>(same) / n, 0.5, 0.05);
}

class BimodalFraction : public ::testing::TestWithParam<double> {};

TEST_P(BimodalFraction, EmpiricalFractionTracksParameter) {
  const double p = GetParam();
  ValueDist d = ValueDist::Bimodal(64, 1024, p, 9);
  int small = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (d.SizeFor("x" + std::to_string(i)) == 64) ++small;
  EXPECT_NEAR(static_cast<double>(small) / n, p, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Fractions, BimodalFraction,
                         ::testing::Values(0.0, 0.1, 0.5, 0.82, 1.0));

}  // namespace
}  // namespace orbit::wl
