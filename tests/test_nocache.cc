// The NoCache baseline is a switch with no program: every packet goes by
// its L3 route, after the same pipeline pacing a cache program sees.
#include <gtest/gtest.h>

#include "rmt/switch.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace orbit {
namespace {

class Sink : public sim::Node {
 public:
  void OnPacket(sim::PacketPtr pkt, int) override { seqs.push_back(pkt->msg.seq); }
  std::string name() const override { return "sink"; }
  std::vector<uint32_t> seqs;
};

TEST(NoCache, ForwardsEverythingByDestination) {
  sim::Simulator sim;
  sim::Network net(&sim);
  rmt::SwitchDevice sw(&sim, &net, "sw", rmt::AsicConfig{});

  Sink a, b;
  auto at_a = net.Connect(&a, &sw, sim::LinkConfig{});
  auto at_b = net.Connect(&b, &sw, sim::LinkConfig{});
  (void)at_a;
  sw.AddRoute(2, at_b.port_b);

  for (uint32_t seq = 0; seq < 5; ++seq) {
    auto pkt = sim::NewPacket(0, 0, 0, 0);
    pkt->src = 1;
    pkt->dst = 2;
    pkt->msg.seq = seq;
    pkt->msg.op = seq % 2 == 0 ? proto::Op::kReadReq : proto::Op::kWriteReq;
    pkt->dport = 5008;  // even OrbitCache traffic is just forwarded
    net.Send(&a, 0, std::move(pkt));
  }
  sim.RunToCompletion();
  EXPECT_EQ(b.seqs.size(), 5u);
  EXPECT_EQ(sw.stats().tx_packets, 5u);
  EXPECT_EQ(sw.stats().recirc_packets, 0u) << "no recirculation ever";
}

TEST(NoCache, ConsumesNoDataPlaneResources) {
  sim::Simulator sim;
  sim::Network net(&sim);
  rmt::SwitchDevice sw(&sim, &net, "sw", rmt::AsicConfig{});
  EXPECT_EQ(sw.resources().sram_bytes_used(), 0u);
}

}  // namespace
}  // namespace orbit
