// The big-endian version prefix of materialized values (kv::Value).
#include "kv/value.h"

#include <gtest/gtest.h>

namespace orbit::kv {
namespace {

TEST(VersionPrefix, MaterializeWritesBigEndian) {
  const std::string bytes =
      Value::Synthetic(12, 0x0102030405060708ull).Materialize("key");
  const std::string prefix = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(bytes.substr(0, 8), prefix);
}

TEST(VersionPrefix, FromBytesReadsBigEndian) {
  const std::string bytes = {8, 9, 10, 11, 12, 13, 14, 15, 'x'};
  const Value v = Value::FromBytes(bytes);
  EXPECT_EQ(v.version(), 0x08090a0b0c0d0e0full);
  EXPECT_EQ(v.size(), 9u);
}

// Round trip across the u64 range (property-style sweep).
class ByteRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ByteRoundTrip, U64SurvivesRoundTrip) {
  const Value v = Value::Synthetic(8, GetParam());
  const Value back = Value::FromBytes(v.Materialize("key"));
  EXPECT_EQ(back.version(), GetParam());
  EXPECT_TRUE(back.ContentEquals(v, "key"));
}

INSTANTIATE_TEST_SUITE_P(Values, ByteRoundTrip,
                         ::testing::Values(0ull, 1ull, 0xffull, 0x100ull,
                                           0xffffffffull, 0x100000000ull,
                                           UINT64_MAX));

}  // namespace
}  // namespace orbit::kv
