#include "rmt/switch.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace orbit::rmt {
namespace {

class Recorder : public sim::Node {
 public:
  explicit Recorder(sim::Simulator* sim) : sim_(sim) {}
  void OnPacket(sim::PacketPtr pkt, int) override {
    arrivals.push_back({pkt->msg.seq, sim_->now(), pkt->recirc_count});
  }
  std::string name() const override { return "recorder"; }

  struct Arrival {
    uint32_t seq;
    SimTime at;
    uint32_t recircs;
  };
  std::vector<Arrival> arrivals;

 private:
  sim::Simulator* sim_;
};

// A programmable stub: maps seq -> action, and counts the device's calls.
class StubProgram : public SwitchProgram {
 public:
  IngressResult Ingress(sim::Packet& pkt, SwitchDevice&) override {
    ++invocations;
    last_from_recirc = pkt.from_recirc;
    auto it = plan.find(pkt.msg.seq);
    if (it == plan.end()) return IngressResult::ToAddr(pkt.dst);
    return it->second;
  }
  void OnRoute(Addr addr, int port) override { routes.push_back({addr, port}); }
  void ResetDataPlane() override { ++resets; }

  std::unordered_map<uint32_t, IngressResult> plan;
  int invocations = 0;
  bool last_from_recirc = false;
  std::vector<std::pair<Addr, int>> routes;
  int resets = 0;
};

class SwitchTest : public ::testing::Test {
 protected:
  SwitchTest()
      : net_(&sim_), sw_(&sim_, &net_, "sw", AsicConfig{}), a_(&sim_), b_(&sim_) {
    sw_.SetProgram(&program_);
    auto at_a = net_.Connect(&a_, &sw_, sim::LinkConfig{});
    auto at_b = net_.Connect(&b_, &sw_, sim::LinkConfig{});
    port_a_ = at_a.port_b;
    port_b_ = at_b.port_b;
    sw_.AddRoute(1, port_a_);
    sw_.AddRoute(2, port_b_);
  }

  sim::PacketPtr Pkt(uint32_t seq, Addr dst = 2) {
    auto pkt = sim::NewPacket(0, 0, 0, 0);
    pkt->src = 1;
    pkt->dst = dst;
    pkt->msg.seq = seq;
    return pkt;
  }

  sim::Simulator sim_;
  sim::Network net_;
  SwitchDevice sw_;
  StubProgram program_;
  Recorder a_, b_;
  int port_a_ = -1, port_b_ = -1;
};

TEST_F(SwitchTest, ForwardsByRoute) {
  net_.Send(&a_, 0, Pkt(1, 2));
  sim_.RunToCompletion();
  ASSERT_EQ(b_.arrivals.size(), 1u);
  EXPECT_EQ(program_.invocations, 1);
  EXPECT_EQ(sw_.stats().rx_packets, 1u);
  EXPECT_EQ(sw_.stats().tx_packets, 1u);
}

TEST_F(SwitchTest, PipelineLatencyApplied) {
  net_.Send(&a_, 0, Pkt(1, 2));
  sim_.RunToCompletion();
  // host->switch: 80B at 100G (6ns) + 500ns prop; pipeline 400ns;
  // switch->host: 6ns + 500ns.
  ASSERT_EQ(b_.arrivals.size(), 1u);
  EXPECT_NEAR(static_cast<double>(b_.arrivals[0].at), 6 + 500 + 400 + 6 + 500,
              2.0);
}

TEST_F(SwitchTest, UnroutedPacketsDropAndCount) {
  net_.Send(&a_, 0, Pkt(1, /*dst=*/77));
  sim_.RunToCompletion();
  EXPECT_TRUE(b_.arrivals.empty());
  EXPECT_EQ(sw_.stats().dropped_unrouted, 1u);
}

TEST_F(SwitchTest, ProgramDropCounts) {
  program_.plan[5] = IngressResult::Drop();
  net_.Send(&a_, 0, Pkt(5));
  sim_.RunToCompletion();
  EXPECT_TRUE(b_.arrivals.empty());
  EXPECT_EQ(sw_.stats().dropped_by_program, 1u);
}

TEST_F(SwitchTest, RecirculationReentersWithFlagAndCount) {
  // First pass recirculates; second pass forwards to b.
  program_.plan[5] = IngressResult::Recirculate();
  net_.Send(&a_, 0, Pkt(5));
  // After the first ingress the plan changes: deliver on next pass.
  sim_.RunUntil(1200);
  program_.plan[5] = IngressResult::ToAddr(2);
  sim_.RunToCompletion();
  ASSERT_EQ(b_.arrivals.size(), 1u);
  EXPECT_GE(b_.arrivals[0].recircs, 1u);
  EXPECT_TRUE(program_.last_from_recirc);
  EXPECT_GE(sw_.stats().recirc_packets, 1u);
  EXPECT_EQ(sw_.stats().recirc_in_flight, 0);
}

TEST_F(SwitchTest, RecirculationInFlightGaugeTracksRing) {
  program_.plan[5] = IngressResult::Recirculate();
  program_.plan[6] = IngressResult::Recirculate();
  net_.Send(&a_, 0, Pkt(5));
  net_.Send(&a_, 0, Pkt(6));
  sim_.RunUntil(100 * kMicrosecond);
  EXPECT_EQ(sw_.stats().recirc_in_flight, 2);
  EXPECT_GT(sw_.stats().recirc_packets, 100u) << "packets keep orbiting";
}

TEST_F(SwitchTest, MulticastClonesToEveryTarget) {
  sw_.pre().SetGroup(7, {McastTarget{false, port_a_},
                         McastTarget{false, port_b_}});
  program_.plan[5] = IngressResult::Multicast(7);
  net_.Send(&a_, 0, Pkt(5));
  sim_.RunToCompletion();
  EXPECT_EQ(a_.arrivals.size(), 1u);
  EXPECT_EQ(b_.arrivals.size(), 1u);
  EXPECT_EQ(sw_.pre().clones_made(), 1u);  // one clone + the original
}

TEST_F(SwitchTest, MulticastToUnknownGroupDrops) {
  program_.plan[5] = IngressResult::Multicast(42);
  net_.Send(&a_, 0, Pkt(5));
  sim_.RunToCompletion();
  EXPECT_EQ(sw_.stats().dropped_unrouted, 1u);
}

TEST_F(SwitchTest, AddRouteNotifiesTheProgram) {
  EXPECT_EQ(program_.routes, (std::vector<std::pair<Addr, int>>{
                                 {1, port_a_}, {2, port_b_}}));
  sw_.AddRoute(2, port_a_);  // a reroute is reported too
  EXPECT_EQ(program_.routes.back(), (std::pair<Addr, int>{2, port_a_}));
  EXPECT_EQ(sw_.RouteOf(2), port_a_);
}

TEST_F(SwitchTest, BypassSkipsTheProgram) {
  program_.plan[5] = IngressResult::Drop();
  sw_.set_bypass(true);
  net_.Send(&a_, 0, Pkt(5));
  net_.Send(&a_, 0, Pkt(6));
  sim_.RunToCompletion();
  EXPECT_EQ(program_.invocations, 0);
  ASSERT_EQ(b_.arrivals.size(), 2u) << "bypassed packets leave by route";
  EXPECT_EQ(sw_.stats().bypass_forwarded, 2u);
  EXPECT_EQ(sw_.stats().dropped_by_program, 0u);

  sw_.set_bypass(false);
  net_.Send(&a_, 0, Pkt(5));
  sim_.RunToCompletion();
  EXPECT_EQ(program_.invocations, 1) << "clearing bypass brings it back";
  EXPECT_EQ(b_.arrivals.size(), 2u);
  EXPECT_EQ(sw_.stats().dropped_by_program, 1u);
  EXPECT_EQ(sw_.stats().bypass_forwarded, 2u);
}

TEST_F(SwitchTest, ResetDataPlaneFlushesTheLoopAndResetsTheProgram) {
  program_.plan[5] = IngressResult::Recirculate();
  net_.Send(&a_, 0, Pkt(5));
  sim_.RunUntil(10 * kMicrosecond);
  ASSERT_EQ(sw_.stats().recirc_in_flight, 1);
  const int passes = program_.invocations;

  sw_.ResetDataPlane();
  EXPECT_EQ(program_.resets, 1);
  EXPECT_EQ(sw_.stats().recirc_in_flight, 0);
  sim_.RunToCompletion();  // terminates: the looping packet is gone
  EXPECT_EQ(sw_.stats().recirc_flushed, 1u);
  EXPECT_EQ(program_.invocations, passes)
      << "a flushed packet never reaches the program again";
  EXPECT_TRUE(b_.arrivals.empty());
  EXPECT_EQ(program_.resets, 1);
}

TEST_F(SwitchTest, RecirculationAfterAResetOvertakesFlushedPackets) {
  // A slow loop: a 1,082-byte pass takes 86,560 ns, an 82-byte one 6,560.
  AsicConfig asic;
  asic.recirc_rate_gbps = 0.1;
  SwitchDevice slow(&sim_, &net_, "slow", asic);
  StubProgram program;
  slow.SetProgram(&program);
  Recorder c(&sim_);
  const int to_slow = net_.Connect(&a_, &slow, sim::LinkConfig{}).port_a;
  slow.AddRoute(3, net_.Connect(&c, &slow, sim::LinkConfig{}).port_b);
  program.plan[5] = IngressResult::Recirculate();
  program.plan[6] = IngressResult::Recirculate();

  auto big = Pkt(5, 3);
  big->msg.value = kv::Value::Synthetic(1000, 1);
  net_.Send(&a_, to_slow, std::move(big));
  sim_.RunUntil(2 * kMicrosecond);  // packet 5's pass ends at ~87.6 us
  ASSERT_EQ(slow.stats().recirc_in_flight, 1);
  slow.ResetDataPlane();
  // The flush zeroed the port's busy horizon, so packet 6's pass ends at
  // ~9.6 us, long before packet 5's, which is still queued behind it.
  net_.Send(&a_, to_slow, Pkt(6, 3));
  sim_.RunUntil(4 * kMicrosecond);
  program.plan[6] = IngressResult::ToAddr(3);
  sim_.RunUntil(20 * kMicrosecond);
  ASSERT_EQ(c.arrivals.size(), 1u);
  EXPECT_EQ(c.arrivals[0].seq, 6u);
  EXPECT_EQ(c.arrivals[0].recircs, 1u);
  EXPECT_EQ(slow.stats().recirc_flushed, 0u) << "packet 5 has not come back";

  sim_.RunToCompletion();
  EXPECT_EQ(slow.stats().recirc_flushed, 1u);
  EXPECT_EQ(slow.stats().recirc_packets, 2u);
  EXPECT_EQ(program.invocations, 3) << "5 once, 6 twice";
}

TEST_F(SwitchTest, ProgramCanOnlyBeAttachedOnce) {
  StubProgram another;
  EXPECT_THROW(sw_.SetProgram(&another), CheckFailure);
}

}  // namespace
}  // namespace orbit::rmt
