// Multi-rack deployment (paper §3.9): each ToR switch caches only the hot
// items of the storage servers in its own rack; a spine interconnects the
// racks; exactly one switch on any path applies the cache logic.
#include <gtest/gtest.h>

#include "apps/server.h"
#include "orbitcache/program.h"
#include "rmt/switch.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace orbit::oc {
namespace {

constexpr L4Port kPort = 5008;
constexpr Addr kClientAddr = 1;
constexpr Addr kSrv1Addr = 101;  // rack 1
constexpr Addr kSrv2Addr = 201;  // rack 2
constexpr Addr kCtrlAddr = 900;

class Catcher : public sim::Node {
 public:
  explicit Catcher(sim::Simulator* sim) : sim_(sim) {}
  void OnPacket(sim::PacketPtr pkt, int) override {
    replies.emplace_back(pkt->msg, sim_->now());
  }
  std::string name() const override { return "catcher"; }
  const proto::Message* Find(uint32_t seq) const {
    for (auto& [msg, at] : replies)
      if (msg.seq == seq) return &msg;
    return nullptr;
  }
  std::vector<std::pair<proto::Message, SimTime>> replies;
  sim::Simulator* sim_;
};

// Two racks: client + server1 behind tor1, server2 behind tor2, spine in
// the middle. Both ToRs run OrbitCache; the spine just forwards.
class MultiRackRig {
 public:
  MultiRackRig()
      : net_(&sim_),
        tor1_(&sim_, &net_, "tor1", rmt::AsicConfig{}),
        tor2_(&sim_, &net_, "tor2", rmt::AsicConfig{}),
        spine_(&sim_, &net_, "spine", rmt::AsicConfig{}),
        client_(&sim_) {
    oc::OrbitConfig ocfg;
    ocfg.capacity = 8;
    prog1_ = std::make_unique<OrbitProgram>(&tor1_, ocfg);
    prog2_ = std::make_unique<OrbitProgram>(&tor2_, ocfg);
    tor1_.SetProgram(prog1_.get());
    tor2_.SetProgram(prog2_.get());

    app::ServerConfig s1;
    s1.addr = kSrv1Addr;
    s1.srv_id = 1;
    s1.service_rate_rps = 0;
    srv1_ = std::make_unique<app::ServerNode>(&sim_, &net_, 0, s1,
                                              [](const Key&) { return 64u; });
    app::ServerConfig s2 = s1;
    s2.addr = kSrv2Addr;
    s2.srv_id = 2;
    srv2_ = std::make_unique<app::ServerNode>(&sim_, &net_, 0, s2,
                                              [](const Key&) { return 64u; });

    auto c = net_.Connect(&client_, &tor1_, sim::LinkConfig{});
    auto a = net_.Connect(srv1_.get(), &tor1_, sim::LinkConfig{});
    auto b = net_.Connect(srv2_.get(), &tor2_, sim::LinkConfig{});
    auto u1 = net_.Connect(&tor1_, &spine_, sim::LinkConfig{});
    auto u2 = net_.Connect(&tor2_, &spine_, sim::LinkConfig{});
    // The controller (fetch-ack sink) lives in rack 1.
    auto k = net_.Connect(&ctrl_, &tor1_, sim::LinkConfig{});

    // tor1: local addrs direct, everything else via the spine uplink. A
    // ToR's routes double as its clone targets, so tor1 forks cache
    // packets to the client and controller directly, tor2 via its uplink.
    tor1_.AddRoute(kClientAddr, c.port_b);
    tor1_.AddRoute(kSrv1Addr, a.port_b);
    tor1_.AddRoute(kSrv2Addr, u1.port_a);
    tor1_.AddRoute(kCtrlAddr, k.port_b);
    // tor2 mirror image.
    tor2_.AddRoute(kSrv2Addr, b.port_b);
    tor2_.AddRoute(kClientAddr, u2.port_a);
    tor2_.AddRoute(kSrv1Addr, u2.port_a);
    tor2_.AddRoute(kCtrlAddr, u2.port_a);
    // spine: racks by address range.
    spine_.AddRoute(kClientAddr, u1.port_b);
    spine_.AddRoute(kSrv1Addr, u1.port_b);
    spine_.AddRoute(kCtrlAddr, u1.port_b);  // controller ack sink in rack 1
    spine_.AddRoute(kSrv2Addr, u2.port_b);
  }

  void SendRead(const Key& key, uint32_t seq, Addr server) {
    proto::Message msg;
    msg.op = proto::Op::kReadReq;
    msg.seq = seq;
    msg.hkey = HashKey128(key);
    msg.key = key;
    net_.Send(&client_, 0, sim::MakePacket(kClientAddr, server, 9000, kPort,
                                           std::move(msg)));
  }
  void SendWrite(const Key& key, uint32_t seq, Addr server) {
    proto::Message msg;
    msg.op = proto::Op::kWriteReq;
    msg.seq = seq;
    msg.hkey = HashKey128(key);
    msg.key = key;
    msg.value = kv::Value::Synthetic(64, 0);
    net_.Send(&client_, 0, sim::MakePacket(kClientAddr, server, 9000, kPort,
                                           std::move(msg)));
  }
  void Fetch(OrbitProgram& prog, const Key& key, Addr server) {
    prog.InsertEntry(HashKey128(key), 0);
    proto::Message msg;
    msg.op = proto::Op::kFetchReq;
    msg.hkey = HashKey128(key);
    msg.key = key;
    net_.Send(&client_, 0, sim::MakePacket(kCtrlAddr, server, kPort, kPort,
                                           std::move(msg)));
    Settle();
  }
  void Settle() { sim_.RunUntil(sim_.now() + 300 * kMicrosecond); }

  sim::Simulator sim_;
  sim::Network net_;
  rmt::SwitchDevice tor1_, tor2_, spine_;  // the spine runs no program
  Catcher client_;
  Catcher ctrl_{&sim_};
  std::unique_ptr<OrbitProgram> prog1_, prog2_;
  std::unique_ptr<app::ServerNode> srv1_, srv2_;
};

TEST(MultiRack, LocalRackItemServedByLocalToR) {
  MultiRackRig rig;
  const Key key = "rack1-hot-key-00";
  rig.Fetch(*rig.prog1_, key, kSrv1Addr);
  ASSERT_EQ(rig.tor1_.stats().recirc_in_flight, 1);
  EXPECT_EQ(rig.tor2_.stats().recirc_in_flight, 0);

  rig.SendRead(key, 1, kSrv1Addr);
  rig.Settle();
  const auto* reply = rig.client_.Find(1);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->cached, 1);
}

TEST(MultiRack, RemoteRackItemCachedOnlyAtItsOwnToR) {
  MultiRackRig rig;
  const Key key = "rack2-hot-key-00";
  rig.Fetch(*rig.prog2_, key, kSrv2Addr);
  ASSERT_EQ(rig.tor2_.stats().recirc_in_flight, 1);
  EXPECT_EQ(rig.tor1_.stats().recirc_in_flight, 0)
      << "tor1 must not cache another rack's items";

  const uint64_t srv2_reads = rig.srv2_->stats().reads;
  rig.SendRead(key, 1, kSrv2Addr);
  rig.Settle();
  const auto* reply = rig.client_.Find(1);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->cached, 1) << "served by tor2 across the spine";
  EXPECT_EQ(rig.srv2_->stats().reads, srv2_reads)
      << "the storage server itself never sees the read";
  // tor1 applied only plain forwarding to this flow.
  EXPECT_EQ(rig.prog1_->stats().read_hits, 0u);
  EXPECT_EQ(rig.prog1_->stats().read_misses, 1u);
}

TEST(MultiRack, RemoteCachedReadIsFasterThanRemoteUncached) {
  MultiRackRig rig;
  const Key cached = "rack2-hot-key-00";
  const Key uncached = "rack2-cold-key-0";
  rig.Fetch(*rig.prog2_, cached, kSrv2Addr);

  rig.SendRead(cached, 1, kSrv2Addr);
  rig.Settle();
  rig.SendRead(uncached, 2, kSrv2Addr);
  rig.Settle();
  // Both answered; the cached one avoided the server hop.
  ASSERT_NE(rig.client_.Find(1), nullptr);
  ASSERT_NE(rig.client_.Find(2), nullptr);
  EXPECT_EQ(rig.client_.Find(1)->cached, 1);
  EXPECT_EQ(rig.client_.Find(2)->cached, 0);
}

TEST(MultiRack, CrossRackWriteKeepsRemoteCacheCoherent) {
  MultiRackRig rig;
  const Key key = "rack2-hot-key-00";
  rig.Fetch(*rig.prog2_, key, kSrv2Addr);

  rig.SendWrite(key, 10, kSrv2Addr);
  rig.Settle();
  ASSERT_NE(rig.client_.Find(10), nullptr);
  EXPECT_TRUE(rig.prog2_->IsValid(0)) << "revalidated by the write reply";

  rig.SendRead(key, 11, kSrv2Addr);
  rig.Settle();
  const auto* read = rig.client_.Find(11);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->cached, 1);
  EXPECT_EQ(read->value.version(), 2u) << "the written value, not the stale one";
}

}  // namespace
}  // namespace orbit::oc
