#include "sim/link.h"

#include <gtest/gtest.h>

#include <set>

#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace orbit::sim {
namespace {

class Recorder : public Node {
 public:
  void OnPacket(PacketPtr pkt, int port) override {
    arrivals.push_back({pkt->msg.seq, port, now_fn()});
  }
  std::string name() const override { return "recorder"; }

  struct Arrival {
    uint32_t seq;
    int port;
    SimTime at;
  };
  std::vector<Arrival> arrivals;
  std::function<SimTime()> now_fn;
};

PacketPtr MakeSized(uint32_t seq, uint32_t value_bytes) {
  auto pkt = NewPacket(0, 0, 0, 0);
  pkt->msg.seq = seq;
  pkt->msg.value = kv::Value::Synthetic(value_bytes, 1);
  return pkt;
}

class LinkTest : public ::testing::Test {
 protected:
  LinkTest() : net_(&sim_) {
    a_.now_fn = b_.now_fn = [this] { return sim_.now(); };
  }

  Simulator sim_;
  Network net_{&sim_};
  Recorder a_, b_;
};

TEST_F(LinkTest, DeliversAfterSerializationPlusPropagation) {
  LinkConfig cfg;
  cfg.rate_gbps = 10.0;   // 0.8 ns per byte
  cfg.propagation = 500;
  net_.Connect(&a_, &b_, cfg);
  // 46B encap + 36B header = 82 bytes -> 65 ns serialization (truncated).
  net_.Send(&a_, 0, MakeSized(1, 0));
  sim_.RunToCompletion();
  ASSERT_EQ(b_.arrivals.size(), 1u);
  EXPECT_EQ(b_.arrivals[0].at, 65 + 500);
}

TEST_F(LinkTest, BackToBackPacketsQueueBehindEachOther) {
  LinkConfig cfg;
  cfg.rate_gbps = 8.0;  // 1 ns per byte -> 82 ns per empty packet
  cfg.propagation = 0;
  net_.Connect(&a_, &b_, cfg);
  net_.Send(&a_, 0, MakeSized(1, 0));
  net_.Send(&a_, 0, MakeSized(2, 0));
  net_.Send(&a_, 0, MakeSized(3, 0));
  sim_.RunToCompletion();
  ASSERT_EQ(b_.arrivals.size(), 3u);
  EXPECT_EQ(b_.arrivals[0].at, 82);
  EXPECT_EQ(b_.arrivals[1].at, 164);  // waits for the wire
  EXPECT_EQ(b_.arrivals[2].at, 246);
}

TEST_F(LinkTest, LargerPacketsTakeProportionallyLonger) {
  LinkConfig cfg;
  cfg.rate_gbps = 8.0;
  cfg.propagation = 0;
  net_.Connect(&a_, &b_, cfg);
  net_.Send(&a_, 0, MakeSized(1, 1024));  // 82 + 1024 bytes -> 1106 ns
  sim_.RunToCompletion();
  ASSERT_EQ(b_.arrivals.size(), 1u);
  EXPECT_EQ(b_.arrivals[0].at, 1106);
}

TEST_F(LinkTest, DropTailWhenQueueFull) {
  LinkConfig cfg;
  cfg.rate_gbps = 0.008;  // 125 ns per byte: effectively frozen wire
  cfg.propagation = 0;
  cfg.queue_limit_bytes = 200;  // fits two empty (82B) packets
  auto at = net_.Connect(&a_, &b_, cfg);
  net_.Send(&a_, 0, MakeSized(1, 0));
  net_.Send(&a_, 0, MakeSized(2, 0));
  net_.Send(&a_, 0, MakeSized(3, 0));  // dropped
  EXPECT_EQ(at.link->stats(0).drops, 1u);
  EXPECT_EQ(at.link->stats(0).packets, 2u);
}

TEST_F(LinkTest, BacklogDrainsOverTime) {
  LinkConfig cfg;
  cfg.rate_gbps = 8.0;  // 82 ns per empty packet
  cfg.propagation = 0;
  cfg.queue_limit_bytes = 170;  // two 82B packets fit, a third does not
  auto at = net_.Connect(&a_, &b_, cfg);
  net_.Send(&a_, 0, MakeSized(1, 0));
  net_.Send(&a_, 0, MakeSized(2, 0));
  net_.Send(&a_, 0, MakeSized(3, 0));  // over the 170B bound -> dropped
  EXPECT_EQ(at.link->stats(0).drops, 1u);
  sim_.RunToCompletion();
  // After draining, new sends are accepted again.
  net_.Send(&a_, 0, MakeSized(4, 0));
  sim_.RunToCompletion();
  EXPECT_EQ(b_.arrivals.size(), 3u);
  EXPECT_EQ(at.link->stats(0).drops, 1u);
}

TEST_F(LinkTest, DirectionsAreIndependent) {
  LinkConfig cfg;
  cfg.rate_gbps = 8.0;
  cfg.propagation = 100;
  net_.Connect(&a_, &b_, cfg);
  net_.Send(&a_, 0, MakeSized(1, 0));
  net_.Send(&b_, 0, MakeSized(2, 0));
  sim_.RunToCompletion();
  ASSERT_EQ(a_.arrivals.size(), 1u);
  ASSERT_EQ(b_.arrivals.size(), 1u);
  EXPECT_EQ(a_.arrivals[0].seq, 2u);
  EXPECT_EQ(b_.arrivals[0].seq, 1u);
  // Same timing both ways: no cross-direction interference.
  EXPECT_EQ(a_.arrivals[0].at, b_.arrivals[0].at);
}

TEST_F(LinkTest, ExtraDelayShiftsDeparture) {
  LinkConfig cfg;
  cfg.rate_gbps = 8.0;
  cfg.propagation = 0;
  net_.Connect(&a_, &b_, cfg);
  net_.Send(&a_, 0, MakeSized(1, 0), /*extra_delay=*/1000);
  sim_.RunToCompletion();
  ASSERT_EQ(b_.arrivals.size(), 1u);
  EXPECT_EQ(b_.arrivals[0].at, 1000 + 82);
}

TEST_F(LinkTest, SameConfigLossyLinksDropDifferentPackets) {
  // Network::Connect mixes each link's creation index into the loss seed,
  // so two links with identical configs (including loss_seed) must not
  // lose the same-numbered packets in lockstep.
  LinkConfig cfg;
  cfg.propagation = 0;
  cfg.loss_rate = 0.5;
  cfg.loss_seed = 1;
  Recorder a2, b2;
  a2.now_fn = b2.now_fn = [this] { return sim_.now(); };
  auto l1 = net_.Connect(&a_, &b_, cfg);
  auto l2 = net_.Connect(&a2, &b2, cfg);
  const uint32_t kN = 400;
  for (uint32_t i = 0; i < kN; ++i) {
    net_.Send(&a_, 0, MakeSized(i, 0));
    net_.Send(&a2, 0, MakeSized(i, 0));
  }
  sim_.RunToCompletion();
  auto survivors = [](const Recorder& r) {
    std::set<uint32_t> s;
    for (const auto& ar : r.arrivals) s.insert(ar.seq);
    return s;
  };
  const std::set<uint32_t> s1 = survivors(b_);
  const std::set<uint32_t> s2 = survivors(b2);
  // Both links actually lose packets...
  EXPECT_EQ(l1.link->stats(0).lost + s1.size(), kN);
  EXPECT_EQ(l2.link->stats(0).lost + s2.size(), kN);
  EXPECT_GT(l1.link->stats(0).lost, 0u);
  EXPECT_GT(l2.link->stats(0).lost, 0u);
  // ...but never the same pattern.
  EXPECT_NE(s1, s2) << "per-link seed mixing must decorrelate loss";
}

TEST_F(LinkTest, HealedGrayLinkDeliversTheLaterPacketFirst) {
  LinkConfig cfg;
  cfg.rate_gbps = 8.0;  // 82 ns per empty packet
  cfg.propagation = 500;
  Link* link = net_.Connect(&a_, &b_, cfg).link;
  link->SetDegrade(0, /*loss_rate=*/0, /*extra_latency=*/10'000);
  net_.Send(&a_, 0, MakeSized(1, 0));
  sim_.RunUntil(100);
  link->SetDegrade(0, 0, 0);  // heals while packet 1 is in flight
  net_.Send(&a_, 0, MakeSized(2, 0));
  sim_.RunToCompletion();
  ASSERT_EQ(b_.arrivals.size(), 2u);
  EXPECT_EQ(b_.arrivals[0].seq, 2u);
  EXPECT_EQ(b_.arrivals[0].at, 100 + 82 + 500);
  EXPECT_EQ(b_.arrivals[1].seq, 1u);
  EXPECT_EQ(b_.arrivals[1].at, 82 + 500 + 10'000);
}

TEST_F(LinkTest, NetworkAssignsDistinctPorts) {
  Recorder hub;
  hub.now_fn = [this] { return sim_.now(); };
  auto at1 = net_.Connect(&a_, &hub, LinkConfig{});
  auto at2 = net_.Connect(&b_, &hub, LinkConfig{});
  EXPECT_EQ(at1.port_b, 0);
  EXPECT_EQ(at2.port_b, 1);
  EXPECT_EQ(net_.num_ports(&hub), 2);
  net_.Send(&a_, 0, MakeSized(1, 0));
  net_.Send(&b_, 0, MakeSized(2, 0));
  sim_.RunToCompletion();
  ASSERT_EQ(hub.arrivals.size(), 2u);
  EXPECT_EQ(hub.arrivals[0].port, 0);
  EXPECT_EQ(hub.arrivals[1].port, 1);
}

}  // namespace
}  // namespace orbit::sim
