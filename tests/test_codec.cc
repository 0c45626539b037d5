// The wire sizes the simulator charges for a packet (serialization time on
// links and the recirculation port) and the single-packet item limit.
#include "proto/message.h"

#include <gtest/gtest.h>

#include <tuple>

#include "sim/packet.h"

namespace orbit::proto {
namespace {

Message SampleMessage(size_t key_len, uint32_t value_len) {
  Message m;
  m.op = Op::kReadRep;
  m.key = std::string(key_len, 'k');
  m.value = kv::Value::Synthetic(value_len, 5);
  return m;
}

TEST(WireFormat, HeaderSizeMatchesSpec) {
  // Paper header (22B) + prototype extras (10B) + fragment fields (2B) +
  // key length (2B).
  EXPECT_EQ(Message::kHeaderBytes, 36u);
}

TEST(WireFormat, MaxSinglePacketItemFits) {
  // §3.2: header + key + value must fit one MTU-sized packet. With the
  // instrumented header a 16B key leaves room for a 1420B value, and one
  // byte more does not fit.
  const uint32_t max_value = kMaxPayloadBytes - 16;
  EXPECT_EQ(max_value, 1420u);
  const Message fits = SampleMessage(16, max_value);
  EXPECT_EQ(Message::kHeaderBytes + fits.payload_bytes(), kMaxOrbitBytes);
  const Message over = SampleMessage(16, max_value + 1);
  EXPECT_GT(Message::kHeaderBytes + over.payload_bytes(), kMaxOrbitBytes);
}

using SizeParam = std::tuple<size_t, uint32_t>;
class WireBytes : public ::testing::TestWithParam<SizeParam> {};

TEST_P(WireBytes, IncludeEncapAndHeader) {
  const auto [key_len, value_len] = GetParam();
  sim::PacketPtr pkt =
      sim::MakePacket(1, 2, 9000, 5008, SampleMessage(key_len, value_len));
  EXPECT_EQ(pkt->wire_bytes(),
            kEncapBytes + Message::kHeaderBytes + key_len + value_len);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, WireBytes,
    ::testing::Combine(::testing::Values<size_t>(1, 16, 40, 120),
                       ::testing::Values<uint32_t>(0, 8, 64, 235, 1024)));

}  // namespace
}  // namespace orbit::proto
