// NetCache baseline behaviour — including the size limitations that
// motivate OrbitCache (§2.1).
#include "netcache/program.h"

#include <gtest/gtest.h>

#include "apps/server.h"
#include "kv/partition.h"
#include "netcache/controller.h"
#include "rmt/switch.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace orbit::nc {
namespace {

constexpr L4Port kPort = 5008;
constexpr Addr kClientAddr = 1, kServerAddr = 100, kCtrlAddr = 900;

class NetRig {
 public:
  struct Reply {
    proto::Message msg;
    SimTime at;
  };
  class ClientPort : public sim::Node {
   public:
    explicit ClientPort(sim::Simulator* sim) : sim_(sim) {}
    void OnPacket(sim::PacketPtr pkt, int) override {
      replies.push_back({pkt->msg, sim_->now()});
    }
    std::string name() const override { return "nc-client"; }
    std::vector<Reply> replies;
    sim::Simulator* sim_;
  };

  explicit NetRig(const NetConfig& cfg, uint32_t value_size = 48)
      : net_(&sim_),
        sw_(&sim_, &net_, "nc-tor", rmt::AsicConfig{}),
        client_(&sim_),
        partitioner_(1) {
    program_ = std::make_unique<NetProgram>(&sw_, cfg);
    sw_.SetProgram(program_.get());
    app::ServerConfig scfg;
    scfg.addr = kServerAddr;
    scfg.orbit_port = kPort;
    scfg.service_rate_rps = 0;
    server_ = std::make_unique<app::ServerNode>(
        &sim_, &net_, 0, scfg,
        [value_size](const Key&) { return value_size; });

    auto c = net_.Connect(&client_, &sw_, sim::LinkConfig{});
    auto s = net_.Connect(server_.get(), &sw_, sim::LinkConfig{});
    auto k = net_.Connect(&client_, &sw_, sim::LinkConfig{});
    sw_.AddRoute(kClientAddr, c.port_b);
    sw_.AddRoute(kServerAddr, s.port_b);
    sw_.AddRoute(kCtrlAddr, k.port_b);
  }

  void Send(proto::Op op, const Key& key, uint32_t seq, uint32_t size = 0) {
    proto::Message msg;
    msg.op = op;
    msg.seq = seq;
    msg.hkey = HashKey128(key);
    msg.key = key;
    if (op == proto::Op::kWriteReq) msg.value = kv::Value::Synthetic(size, 0);
    net_.Send(&client_, 0,
              sim::MakePacket(kClientAddr, kServerAddr, 9000, kPort,
                              std::move(msg)));
  }
  void Fetch(const Key& key) {
    proto::Message msg;
    msg.op = proto::Op::kFetchReq;
    msg.hkey = HashKey128(key);
    msg.key = key;
    net_.Send(&client_, 0,
              sim::MakePacket(kCtrlAddr, kServerAddr, kPort, kPort,
                              std::move(msg)));
  }
  void CacheAndFetch(const Key& key, uint32_t idx) {
    ASSERT_TRUE(program_->InsertEntry(key, idx));
    Fetch(key);
    Settle();
  }
  void Settle() { sim_.RunUntil(sim_.now() + 200 * kMicrosecond); }
  const Reply* FindReply(uint32_t seq) const {
    for (const auto& r : client_.replies)
      if (r.msg.seq == seq) return &r;
    return nullptr;
  }

  sim::Simulator sim_;
  sim::Network net_;
  rmt::SwitchDevice sw_;
  ClientPort client_;
  kv::Partitioner partitioner_;
  std::unique_ptr<NetProgram> program_;
  std::unique_ptr<app::ServerNode> server_;
};

NetConfig SmallConfig() {
  NetConfig cfg;
  cfg.capacity = 16;
  cfg.hot_threshold = 4;
  return cfg;
}

TEST(NetCache, ServesCachedItemFromSwitchMemory) {
  NetRig rig(SmallConfig());
  const Key key = "nckey-0000000001";
  rig.CacheAndFetch(key, 0);
  const uint64_t reads = rig.server_->stats().reads;

  rig.Send(proto::Op::kReadReq, key, 1);
  rig.Settle();
  const auto* reply = rig.FindReply(1);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->msg.op, proto::Op::kReadRep);
  EXPECT_EQ(reply->msg.cached, 1);
  EXPECT_EQ(reply->msg.key, key);
  EXPECT_EQ(reply->msg.value.size(), 48u);
  EXPECT_EQ(rig.server_->stats().reads, reads);
  // Byte-exact value reconstruction from the word registers.
  auto srv_value = rig.server_->store().Get(key);
  ASSERT_TRUE(srv_value.has_value());
  EXPECT_TRUE(reply->msg.value.ContentEquals(*srv_value, key));
}

TEST(NetCache, MissForwardsToServer) {
  NetRig rig(SmallConfig());
  rig.Send(proto::Op::kReadReq, "nckey-0000000002", 1);
  rig.Settle();
  const auto* reply = rig.FindReply(1);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->msg.cached, 0);
  EXPECT_EQ(rig.program_->stats().read_misses, 1u);
}

TEST(NetCache, CannotCacheWideKeys) {
  NetRig rig(SmallConfig());
  // 17-byte key: exceeds the 16B match-key width — hardware says no.
  EXPECT_THROW(rig.program_->InsertEntry(std::string(17, 'k'), 0),
               CheckFailure);
}

TEST(NetCache, SelfEvictsValuesBeyondStageBudget) {
  // 8 stages x 8B = 64B. A 100B value cannot live in switch memory: the
  // fetch completes but the data plane evicts the entry and reports it.
  NetRig rig(SmallConfig(), /*value_size=*/100);
  const Key key = "nckey-0000000003";
  ASSERT_TRUE(rig.program_->InsertEntry(key, 0));
  rig.Fetch(key);
  rig.Settle();
  EXPECT_FALSE(rig.program_->FindIdx(key).has_value());
  EXPECT_EQ(rig.program_->stats().uncacheable_values, 1u);
  auto evicted = rig.program_->DrainSelfEvictions();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], key);
  // Requests fall through to the server.
  rig.Send(proto::Op::kReadReq, key, 1);
  rig.Settle();
  ASSERT_NE(rig.FindReply(1), nullptr);
  EXPECT_EQ(rig.FindReply(1)->msg.cached, 0);
}

TEST(NetCache, Exactly64ByteValueFits) {
  NetRig rig(SmallConfig(), /*value_size=*/64);
  const Key key = "nckey-0000000004";
  rig.CacheAndFetch(key, 0);
  rig.Send(proto::Op::kReadReq, key, 1);
  rig.Settle();
  ASSERT_NE(rig.FindReply(1), nullptr);
  EXPECT_EQ(rig.FindReply(1)->msg.cached, 1);
  EXPECT_EQ(rig.FindReply(1)->msg.value.size(), 64u);
}

TEST(NetCache, WriteInvalidatesThenWriteReplyRefreshes) {
  NetRig rig(SmallConfig());
  const Key key = "nckey-0000000005";
  rig.CacheAndFetch(key, 0);
  const uint32_t idx = *rig.program_->FindIdx(key);

  rig.Send(proto::Op::kWriteReq, key, 1, /*size=*/32);
  rig.sim_.RunUntil(rig.sim_.now() + 2 * kMicrosecond);
  EXPECT_FALSE(rig.program_->IsValid(idx));
  rig.Settle();
  EXPECT_TRUE(rig.program_->IsValid(idx));

  rig.Send(proto::Op::kReadReq, key, 2);
  rig.Settle();
  const auto* read = rig.FindReply(2);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->msg.cached, 1);
  EXPECT_EQ(read->msg.value.size(), 32u);
  EXPECT_EQ(read->msg.value.version(), 2u);
}

TEST(NetCache, LostNewestWriteReplyCannotRevalidateStaleValue) {
  // The stale-revalidation race the verification swarm caught: two writes
  // pass the switch (both invalidate), the first write's reply arrives and
  // the second write's reply is lost. Revalidating from the first reply
  // would pin the cache at the older version while the store holds the
  // newer one — the entry must instead stay invalid so reads fall through.
  NetRig rig(SmallConfig());
  const Key key = "nckey-0000000014";
  rig.CacheAndFetch(key, 0);
  const uint32_t idx = *rig.program_->FindIdx(key);

  auto make = [&](proto::Op op, uint8_t flag, uint32_t epoch, uint64_t ver) {
    proto::Message msg;
    msg.op = op;
    msg.hkey = HashKey128(key);
    msg.key = key;
    msg.flag = flag;
    msg.epoch = epoch;
    if (op == proto::Op::kWriteRep) msg.value = kv::Value::Synthetic(32, ver);
    return sim::MakePacket(kClientAddr, kServerAddr, 9000, kPort,
                           std::move(msg));
  };

  // Both write requests pass the switch before either reply returns.
  auto w1 = make(proto::Op::kWriteReq, 0, 0, 0);
  auto w2 = make(proto::Op::kWriteReq, 0, 0, 0);
  rig.program_->Ingress(*w1, rig.sw_);
  rig.program_->Ingress(*w2, rig.sw_);
  EXPECT_FALSE(rig.program_->IsValid(idx));

  // The first write's reply (server version 2) echoes the older epoch; the
  // second write's reply (version 3) is lost in transit.
  auto rep1 = make(proto::Op::kWriteRep, w1->msg.flag, w1->msg.epoch, 2);
  rig.program_->Ingress(*rep1, rig.sw_);
  EXPECT_FALSE(rig.program_->IsValid(idx))
      << "an overtaken reply revalidated the entry with a stale value";
  EXPECT_EQ(rig.program_->stats().stale_revalidations, 1u);

  // Reads fall through to the server (fresh data) instead of the cache.
  rig.Send(proto::Op::kReadReq, key, 7);
  rig.Settle();
  ASSERT_NE(rig.FindReply(7), nullptr);
  EXPECT_EQ(rig.FindReply(7)->msg.cached, 0);

  // A current-epoch reply (a later write completing normally) recovers.
  auto w3 = make(proto::Op::kWriteReq, 0, 0, 0);
  rig.program_->Ingress(*w3, rig.sw_);
  auto rep3 = make(proto::Op::kWriteRep, w3->msg.flag, w3->msg.epoch, 4);
  rig.program_->Ingress(*rep3, rig.sw_);
  EXPECT_TRUE(rig.program_->IsValid(idx));
}

TEST(NetCache, ReplyStampedBeforeAResetCannotRevalidate) {
  // A write reply that waits out a switch reset (in a server queue, say)
  // must not match an epoch that a write after the rebuild is given.
  NetRig rig(SmallConfig());
  const Key key = "nckey-0000000015";
  auto pass_write = [&] {
    proto::Message msg;
    msg.op = proto::Op::kWriteReq;
    msg.hkey = HashKey128(key);
    msg.key = key;
    msg.value = kv::Value::Synthetic(32, 0);
    auto pkt = sim::MakePacket(kClientAddr, kServerAddr, 9000, kPort,
                               std::move(msg));
    rig.program_->Ingress(*pkt, rig.sw_);
    return pkt->msg;
  };

  ASSERT_TRUE(rig.program_->InsertEntry(key, 0));
  pass_write();
  const proto::Message before_reset = pass_write();
  rig.sw_.ResetDataPlane();
  ASSERT_TRUE(rig.program_->InsertEntry(key, 0));  // the rebuild
  pass_write();
  pass_write();

  proto::Message msg = before_reset;
  msg.op = proto::Op::kWriteRep;
  msg.value = kv::Value::Synthetic(32, 3);
  auto reply = sim::MakePacket(kServerAddr, kClientAddr, kPort, 9000,
                               std::move(msg));
  rig.program_->Ingress(*reply, rig.sw_);
  EXPECT_FALSE(rig.program_->IsValid(0))
      << "a reply from before the reset revalidated the entry";
  EXPECT_EQ(rig.program_->stats().validations, 0u);
  EXPECT_EQ(rig.program_->stats().stale_revalidations, 1u);
}

TEST(NetCache, InvalidEntryReadsGoToServer) {
  NetRig rig(SmallConfig());
  const Key key = "nckey-0000000006";
  ASSERT_TRUE(rig.program_->InsertEntry(key, 0));  // no fetch: invalid
  rig.Send(proto::Op::kReadReq, key, 1);
  rig.Settle();
  ASSERT_NE(rig.FindReply(1), nullptr);
  EXPECT_EQ(rig.FindReply(1)->msg.cached, 0);
  EXPECT_EQ(rig.program_->stats().invalid_to_server, 1u);
}

TEST(NetCache, HotUncachedKeysAreReported) {
  NetRig rig(SmallConfig());
  const Key key = "nckey-0000000007";
  for (uint32_t i = 0; i < 10; ++i) {
    rig.Send(proto::Op::kReadReq, key, 100 + i);
    rig.sim_.RunUntil(rig.sim_.now() + 10 * kMicrosecond);
  }
  auto reports = rig.program_->DrainHotReports();
  ASSERT_EQ(reports.size(), 1u) << "deduplicated by the report filter";
  EXPECT_EQ(reports[0].first, key);
  EXPECT_GE(reports[0].second, 4u);
  EXPECT_TRUE(rig.program_->DrainHotReports().empty());
}

TEST(NetCache, PopularityCountersReadAndReset) {
  NetRig rig(SmallConfig());
  const Key key = "nckey-0000000008";
  rig.CacheAndFetch(key, 0);
  for (uint32_t i = 0; i < 3; ++i) {
    rig.Send(proto::Op::kReadReq, key, 200 + i);
    rig.sim_.RunUntil(rig.sim_.now() + 10 * kMicrosecond);
  }
  auto pop = rig.program_->ReadAndResetPopularity();
  EXPECT_EQ(pop[0], 3u);
  EXPECT_EQ(rig.program_->ReadAndResetPopularity()[0], 0u);
}

TEST(NetCache, ResourceFootprintUsesValueStages) {
  NetRig rig(SmallConfig());
  // lookup(0) + state(1) + 8 value stages (2..9) + sketch(10) + l3(11).
  EXPECT_EQ(rig.sw_.resources().stages_used(), 12);
  EXPECT_EQ(rig.program_->max_value_bytes(), 64u);
}

TEST(NetCacheRecircRead, LargeValueServedOverMultiplePasses) {
  // The §2.2 strawman: a 256B value takes ceil(256/64) = 4 passes, i.e.
  // 3 request recirculations, before the reply leaves.
  NetConfig cfg = SmallConfig();
  cfg.recirc_read_mode = true;
  NetRig rig(cfg, /*value_size=*/256);
  const Key key = "nckey-0000000010";
  rig.CacheAndFetch(key, 0);

  rig.Send(proto::Op::kReadReq, key, 1);
  rig.Settle();
  const auto* reply = rig.FindReply(1);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->msg.cached, 1);
  EXPECT_EQ(reply->msg.value.size(), 256u);
  EXPECT_EQ(rig.program_->stats().request_recircs, 3u);
  // Byte-exact reconstruction across the register words + extended slices.
  auto srv_value = rig.server_->store().Get(key);
  ASSERT_TRUE(srv_value.has_value());
  EXPECT_TRUE(reply->msg.value.ContentEquals(*srv_value, key));
}

TEST(NetCacheRecircRead, OnePassValuesNeverRecirculate) {
  NetConfig cfg = SmallConfig();
  cfg.recirc_read_mode = true;
  NetRig rig(cfg, /*value_size=*/64);
  const Key key = "nckey-0000000011";
  rig.CacheAndFetch(key, 0);
  rig.Send(proto::Op::kReadReq, key, 1);
  rig.Settle();
  ASSERT_NE(rig.FindReply(1), nullptr);
  EXPECT_EQ(rig.program_->stats().request_recircs, 0u);
  EXPECT_EQ(rig.sw_.stats().recirc_packets, 0u);
}

TEST(NetCacheRecircRead, RecircLoadScalesWithRequests) {
  // The architectural flaw: recirculation-port load is proportional to the
  // hit rate — unlike OrbitCache's constant ring.
  NetConfig cfg = SmallConfig();
  cfg.recirc_read_mode = true;
  NetRig rig(cfg, /*value_size=*/512);  // 8 passes -> 7 recircs each
  const Key key = "nckey-0000000012";
  rig.CacheAndFetch(key, 0);
  for (uint32_t i = 0; i < 20; ++i) {
    rig.Send(proto::Op::kReadReq, key, 100 + i);
    rig.sim_.RunUntil(rig.sim_.now() + 20 * kMicrosecond);
  }
  EXPECT_EQ(rig.program_->stats().request_recircs, 20u * 7);
}

TEST(NetCacheRecircRead, StillCannotCacheBeyondTheMode) {
  NetConfig cfg = SmallConfig();
  cfg.recirc_read_mode = true;
  cfg.recirc_read_max_bytes = 1024;
  NetRig rig(cfg, /*value_size=*/1416);
  const Key key = "nckey-0000000013";
  ASSERT_TRUE(rig.program_->InsertEntry(key, 0));
  rig.Fetch(key);
  rig.Settle();
  EXPECT_FALSE(rig.program_->FindIdx(key).has_value())
      << "1416B exceeds even the strawman's budget";
}

TEST(NetCache, RejectsConfigThatCannotFitThePipeline) {
  sim::Simulator sim;
  sim::Network net(&sim);
  rmt::SwitchDevice sw(&sim, &net, "sw", rmt::AsicConfig{});
  NetConfig bad;
  bad.value_stages = 20;  // 12-stage ASIC cannot hold it
  EXPECT_THROW(NetProgram(&sw, bad), CheckFailure);
}

}  // namespace
}  // namespace orbit::nc
