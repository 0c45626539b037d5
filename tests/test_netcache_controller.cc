// NetCache control-plane behaviour: preload filtering, count-min-driven
// updates, and the uncacheable-value blacklist.
#include "netcache/controller.h"

#include <gtest/gtest.h>

#include "apps/server.h"
#include "netcache/program.h"
#include "rmt/switch.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace orbit::nc {
namespace {

constexpr L4Port kPort = 5008;
constexpr Addr kClientAddr = 1, kServerAddr = 100, kCtrlAddr = 900;

class CtrlRig {
 public:
  explicit CtrlRig(uint32_t value_size, uint64_t hot_threshold = 4)
      : net_(&sim_), sw_(&sim_, &net_, "tor", rmt::AsicConfig{}),
        partitioner_(1) {
    NetConfig pcfg;
    pcfg.capacity = 16;
    pcfg.hot_threshold = hot_threshold;
    program_ = std::make_unique<NetProgram>(&sw_, pcfg);
    sw_.SetProgram(program_.get());

    app::ServerConfig scfg;
    scfg.addr = kServerAddr;
    scfg.orbit_port = kPort;
    scfg.service_rate_rps = 0;
    server_ = std::make_unique<app::ServerNode>(
        &sim_, &net_, 0, scfg,
        [value_size](const Key&) { return value_size; });

    ctrl::ControllerConfig ccfg;
    ccfg.cache_size = 4;
    ccfg.update_period = 2 * kMillisecond;
    ccfg.fetch_timeout = kMillisecond;
    ccfg.orbit_port = kPort;
    controller_ = std::make_unique<NetController>(
        &sim_, &net_, program_.get(), &partitioner_,
        std::vector<Addr>{kServerAddr}, kCtrlAddr, 0, ccfg);

    auto c = net_.Connect(&sink_, &sw_, sim::LinkConfig{});
    auto s = net_.Connect(server_.get(), &sw_, sim::LinkConfig{});
    auto k = net_.Connect(controller_.get(), &sw_, sim::LinkConfig{});
    sw_.AddRoute(kClientAddr, c.port_b);
    sw_.AddRoute(kServerAddr, s.port_b);
    sw_.AddRoute(kCtrlAddr, k.port_b);
  }

  void SendRead(const Key& key, uint32_t seq) {
    proto::Message msg;
    msg.op = proto::Op::kReadReq;
    msg.seq = seq;
    msg.hkey = HashKey128(key);
    msg.key = key;
    net_.Send(&sink_, 0, sim::MakePacket(kClientAddr, kServerAddr, 9000,
                                         kPort, std::move(msg)));
  }
  void Settle(SimTime t = 300 * kMicrosecond) { sim_.RunUntil(sim_.now() + t); }

  class Sink : public sim::Node {
   public:
    void OnPacket(sim::PacketPtr, int) override {}
    std::string name() const override { return "sink"; }
  };

  sim::Simulator sim_;
  sim::Network net_;
  rmt::SwitchDevice sw_;
  kv::Partitioner partitioner_;
  Sink sink_;
  std::unique_ptr<NetProgram> program_;
  std::unique_ptr<app::ServerNode> server_;
  std::unique_ptr<NetController> controller_;
};

TEST(NetController, PreloadFetchesValuesAndSkipsWideKeys) {
  CtrlRig rig(/*value_size=*/48);
  rig.controller_->Preload({"nck-000000000001", "nck-000000000002",
                            std::string(20, 'w')});
  rig.Settle();
  EXPECT_EQ(rig.controller_->num_cached(), 2u);
  EXPECT_EQ(rig.controller_->stats().skipped_wide_keys, 1u);
  EXPECT_TRUE(rig.program_->IsValid(
      *rig.program_->FindIdx("nck-000000000001")));
}

TEST(NetController, HotKeyDetectedAndInsertedFromSketch) {
  CtrlRig rig(/*value_size=*/48);
  rig.controller_->Start();
  const Key hot = "nck-hot-00000001";
  for (uint32_t i = 0; i < 12; ++i) {
    rig.SendRead(hot, 100 + i);
    rig.Settle(50 * kMicrosecond);
  }
  rig.sim_.RunUntil(rig.sim_.now() + 5 * kMillisecond);  // update period
  EXPECT_TRUE(rig.controller_->IsCached(hot))
      << "the data-plane sketch report must drive an insertion";
  // And after the fetch completes, the switch serves it.
  auto idx = rig.program_->FindIdx(hot);
  ASSERT_TRUE(idx.has_value());
  EXPECT_TRUE(rig.program_->IsValid(*idx));
}

TEST(NetController, UncacheableValuesAreBlacklistedForever) {
  CtrlRig rig(/*value_size=*/500);  // > 64B: never storable
  rig.controller_->Start();
  const Key hot = "nck-big-00000001";
  for (uint32_t i = 0; i < 12; ++i) {
    rig.SendRead(hot, 100 + i);
    rig.Settle(50 * kMicrosecond);
  }
  rig.sim_.RunUntil(rig.sim_.now() + 5 * kMillisecond);
  // Inserted, fetched, self-evicted by the data plane, blacklisted.
  EXPECT_FALSE(rig.controller_->IsCached(hot));
  EXPECT_GE(rig.controller_->stats().blacklisted_values, 1u);
  // Keep hammering: it must never be re-inserted.
  for (uint32_t i = 0; i < 12; ++i) {
    rig.SendRead(hot, 200 + i);
    rig.Settle(50 * kMicrosecond);
  }
  rig.sim_.RunUntil(rig.sim_.now() + 5 * kMillisecond);
  EXPECT_FALSE(rig.controller_->IsCached(hot));
  EXPECT_EQ(rig.program_->num_entries(), 0u);
}

TEST(NetController, RejectsOversizedCacheConfig) {
  sim::Simulator sim;
  sim::Network net(&sim);
  rmt::SwitchDevice sw(&sim, &net, "t", rmt::AsicConfig{});
  NetConfig pcfg;
  pcfg.capacity = 4;
  NetProgram prog(&sw, pcfg);
  kv::Partitioner part(1);
  ctrl::ControllerConfig ccfg;
  ccfg.cache_size = 8;  // > capacity
  EXPECT_THROW(NetController(&sim, &net, &prog, &part, {kServerAddr},
                             kCtrlAddr, 0, ccfg),
               CheckFailure);
}

}  // namespace
}  // namespace orbit::nc
