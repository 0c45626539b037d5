// Control-plane behaviour: preloading, popularity-driven cache updates
// (paper §3.8, Fig. 8), fetch retries, and dynamic cache sizing (§3.10).
#include "orbitcache/controller.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/orbit_rig.h"

namespace orbit::oc {
namespace {

using testrig::Rig;
using testrig::RigConfig;

RigConfig ControllerRig(size_t cache_size = 4) {
  RigConfig cfg;
  cfg.orbit.capacity = 32;
  cfg.num_servers = 2;
  cfg.with_controller = true;
  cfg.controller.cache_size = cache_size;
  cfg.controller.max_cache_size = 32;
  cfg.controller.min_cache_size = 2;
  cfg.controller.update_period = 5 * kMillisecond;
  cfg.controller.fetch_timeout = kMillisecond;
  return cfg;
}

Key K(int i) { return "ctl-key-" + std::to_string(10000000 + i); }

TEST(Controller, PreloadInstallsEntriesAndFetchesValues) {
  Rig rig(ControllerRig());
  rig.controller().Preload({K(1), K(2), K(3)});
  rig.Settle();
  EXPECT_EQ(rig.controller().num_cached(), 3u);
  EXPECT_EQ(rig.program().num_entries(), 3u);
  EXPECT_EQ(rig.sw().stats().recirc_in_flight, 3)
      << "one cache packet per preloaded key";
  // All entries valid and serving.
  rig.SendRead(K(2), 1);
  rig.Settle();
  ASSERT_NE(rig.FindReply(1), nullptr);
  EXPECT_EQ(rig.FindReply(1)->msg.cached, 1);
}

TEST(Controller, PreloadRespectsCacheSize) {
  Rig rig(ControllerRig(2));
  rig.controller().Preload({K(1), K(2), K(3), K(4)});
  EXPECT_EQ(rig.controller().num_cached(), 2u);
}

TEST(Controller, HotReportedKeyEvictsColdCachedKey) {
  Rig rig(ControllerRig(2));
  rig.controller().Preload({K(1), K(2)});
  rig.controller().Start();
  rig.Settle();

  // Give K(1) some switch-side popularity; K(2) stays cold.
  for (uint32_t i = 0; i < 5; ++i) {
    rig.SendRead(K(1), 100 + i);
    rig.Run(5 * kMicrosecond);
  }
  // A much hotter uncached key arrives via a server top-k report.
  proto::Message report;
  report.op = proto::Op::kTopKReport;
  report.key = K(9);
  report.value = kv::Value::Synthetic(0, /*count=*/1000);
  rig.net().Send(&rig.client(), 0,
                 sim::MakePacket(rig.ServerAddrFor(K(9)),
                                 testrig::kControllerAddr, 7000, 7000,
                                 std::move(report)));
  rig.Run(10 * kMillisecond);  // one update period
  rig.Settle();

  EXPECT_TRUE(rig.controller().IsCached(K(9)));
  EXPECT_TRUE(rig.controller().IsCached(K(1))) << "hot key survives";
  EXPECT_FALSE(rig.controller().IsCached(K(2))) << "cold key evicted";
  EXPECT_GE(rig.controller().stats().evictions, 1u);
  EXPECT_GE(rig.controller().stats().reports_received, 1u);

  // The new key serves from the switch.
  rig.SendRead(K(9), 200);
  rig.Settle();
  ASSERT_NE(rig.FindReply(200), nullptr);
  EXPECT_EQ(rig.FindReply(200)->msg.cached, 1);
}

TEST(Controller, ColderReportedKeyDoesNotEvict) {
  Rig rig(ControllerRig(2));
  rig.controller().Preload({K(1), K(2)});
  rig.controller().Start();
  rig.Settle();
  for (uint32_t i = 0; i < 20; ++i) {
    rig.SendRead(K(1), 100 + i);
    rig.SendRead(K(2), 200 + i);
    rig.Run(2 * kMicrosecond);
  }
  proto::Message report;
  report.op = proto::Op::kTopKReport;
  report.key = K(9);
  report.value = kv::Value::Synthetic(0, /*count=*/1);  // colder than both
  rig.net().Send(&rig.client(), 0,
                 sim::MakePacket(rig.ServerAddrFor(K(9)),
                                 testrig::kControllerAddr, 7000, 7000,
                                 std::move(report)));
  rig.Run(10 * kMillisecond);
  EXPECT_FALSE(rig.controller().IsCached(K(9)));
  EXPECT_TRUE(rig.controller().IsCached(K(1)));
  EXPECT_TRUE(rig.controller().IsCached(K(2)));
}

TEST(Controller, NewKeyInheritsVictimIndex) {
  Rig rig(ControllerRig(1));
  rig.controller().Preload({K(1)});
  rig.controller().Start();
  rig.Settle();
  const uint32_t old_idx = *rig.program().FindIdx(HashKey128(K(1)));

  proto::Message report;
  report.op = proto::Op::kTopKReport;
  report.key = K(9);
  report.value = kv::Value::Synthetic(0, 1000);
  rig.net().Send(&rig.client(), 0,
                 sim::MakePacket(rig.ServerAddrFor(K(9)),
                                 testrig::kControllerAddr, 7000, 7000,
                                 std::move(report)));
  rig.Run(10 * kMillisecond);
  ASSERT_TRUE(rig.controller().IsCached(K(9)));
  EXPECT_EQ(*rig.program().FindIdx(HashKey128(K(9))), old_idx)
      << "§3.8: replacement inherits the CacheIdx";
}

TEST(Controller, DynamicSizingShrinksOnOverflow) {
  RigConfig cfg = ControllerRig(8);
  cfg.controller.dynamic_sizing = true;
  cfg.controller.sizing_step = 2;
  cfg.controller.overflow_threshold = 0.01;
  Rig rig(cfg);
  rig.controller().Preload({K(1)});
  rig.controller().Start();
  rig.Settle();

  // Burst far beyond the queue depth so the overflow ratio spikes.
  for (uint32_t i = 0; i < 64; ++i) rig.SendRead(K(1), 1000 + i);
  rig.Run(10 * kMillisecond);
  EXPECT_LT(rig.controller().current_cache_size(), 8u);
  EXPECT_GE(rig.controller().stats().size_decreases, 1u);
}

TEST(Controller, DynamicSizingGrowsWhenHealthy) {
  RigConfig cfg = ControllerRig(4);
  cfg.controller.dynamic_sizing = true;
  cfg.controller.sizing_step = 4;
  Rig rig(cfg);
  rig.controller().Preload({K(1)});
  rig.controller().Start();
  rig.Settle();
  for (uint32_t i = 0; i < 10; ++i) {
    rig.SendRead(K(1), 100 + i);
    rig.Run(kMillisecond);
  }
  rig.Run(20 * kMillisecond);
  EXPECT_GT(rig.controller().current_cache_size(), 4u);
  EXPECT_GE(rig.controller().stats().size_increases, 1u);
}

TEST(Controller, NoCloningRefetchesEachServeAfterTheCpuTurnaround) {
  // Without cloning, a serve sends the cache packet itself to the client,
  // so the controller refetches the value one CPU turnaround (10 us) after
  // each serve, in serve order, unless it evicted the key meanwhile.
  constexpr SimTime kCpuTurnaround = 10 * kMicrosecond;
  RigConfig cfg = ControllerRig();
  cfg.orbit.enable_cloning = false;
  Rig rig(cfg);
  // a and b live on different servers, so the server an F-REQ reaches
  // names its key.
  const Key a = K(1);
  Key b;
  for (int i = 2; b.empty(); ++i)
    if (rig.ServerAddrFor(K(i)) != rig.ServerAddrFor(a)) b = K(i);
  const Key c = K(0);
  rig.controller().Preload({a, b, c});
  rig.Settle();

  // Runs `d` one nanosecond at a time, logging when a serve asks for a
  // refetch, when the controller sends an F-REQ, and which server each
  // F-REQ reached.
  std::vector<SimTime> serves, freqs;
  std::vector<Addr> fetched_at;
  const auto run_logged = [&](SimTime d) {
    const SimTime end = rig.sim().now() + d;
    for (SimTime t = rig.sim().now() + 1; t <= end; ++t) {
      const uint64_t refetches = rig.program().stats().refetches;
      const uint64_t sent = rig.controller().stats().fetches_sent;
      const uint64_t at_a = rig.ServerFor(a).stats().fetches;
      const uint64_t at_b = rig.ServerFor(b).stats().fetches;
      rig.sim().RunUntil(t);
      serves.insert(serves.end(), rig.program().stats().refetches - refetches,
                    t);
      freqs.insert(freqs.end(), rig.controller().stats().fetches_sent - sent,
                   t);
      fetched_at.insert(fetched_at.end(),
                        rig.ServerFor(a).stats().fetches - at_a,
                        rig.ServerAddrFor(a));
      fetched_at.insert(fetched_at.end(),
                        rig.ServerFor(b).stats().fetches - at_b,
                        rig.ServerAddrFor(b));
    }
  };

  rig.SendRead(a, 1);
  run_logged(kMicrosecond);
  rig.SendRead(b, 2);
  run_logged(50 * kMicrosecond);
  ASSERT_EQ(serves.size(), 2u);
  EXPECT_LT(serves[0], serves[1]);
  EXPECT_EQ(freqs, (std::vector<SimTime>{serves[0] + kCpuTurnaround,
                                         serves[1] + kCpuTurnaround}));
  EXPECT_EQ(fetched_at, (std::vector<Addr>{rig.ServerAddrFor(a),
                                           rig.ServerAddrFor(b)}))
      << "F-REQs leave in serve order";
  EXPECT_NE(rig.FindReply(1), nullptr);
  EXPECT_NE(rig.FindReply(2), nullptr);

  // Evicted 5 us after its serve: the refetch timer still fires, but sends
  // nothing.
  serves.clear();
  freqs.clear();
  rig.SendRead(c, 3);
  run_logged(3 * kMicrosecond);
  ASSERT_EQ(serves.size(), 1u);
  rig.sim().RunUntil(serves[0] + 5 * kMicrosecond);
  ASSERT_TRUE(rig.controller().WithdrawKey(c));
  run_logged(50 * kMicrosecond);
  EXPECT_TRUE(freqs.empty()) << "no F-REQ for a key evicted meanwhile";
  EXPECT_NE(rig.FindReply(3), nullptr);
}

TEST(Controller, NoCloningServesAgainOnceTheRefetchReturns) {
  // A no-cloning serve hands the entry's only cache packet to the client
  // while the entry stays valid; the refetched value must orbit as the
  // next cache packet rather than be taken for a duplicate.
  RigConfig cfg = ControllerRig();
  cfg.orbit.enable_cloning = false;
  Rig rig(cfg);
  const Key a = K(1);
  rig.controller().Preload({a});
  rig.Settle();

  rig.SendRead(a, 1);
  rig.Settle();
  ASSERT_NE(rig.FindReply(1), nullptr);
  EXPECT_EQ(rig.FindReply(1)->msg.cached, 1);
  ASSERT_EQ(rig.program().stats().refetches, 1u);

  rig.SendRead(a, 2);
  rig.Settle();
  ASSERT_NE(rig.FindReply(2), nullptr) << "no cache packet answered";
  EXPECT_EQ(rig.FindReply(2)->msg.cached, 1);
  EXPECT_EQ(rig.program().stats().served_by_cache, 2u);
}

TEST(Controller, NoCloningKeptFetchReplyEndsItsFetch) {
  // Without cloning the data plane keeps each F-REP as the cache packet,
  // so the controller never sees it; the program's fetch-completion
  // notice must end the pending fetch, or every update tick would retry
  // it and mint another packet.
  RigConfig cfg = ControllerRig();
  cfg.orbit.enable_cloning = false;
  Rig rig(cfg);
  rig.controller().Preload({K(1), K(2)});
  rig.controller().Start();
  rig.Settle();
  rig.Run(4 * cfg.controller.update_period);

  const auto& cs = rig.controller().stats();
  EXPECT_EQ(cs.fetch_retries, 0u);
  EXPECT_EQ(cs.fetch_failures, 0u);
  EXPECT_EQ(cs.evictions, 0u);
  EXPECT_EQ(rig.sw().stats().recirc_in_flight, 2) << "one packet per key";
  rig.SendRead(K(2), 1);
  rig.Settle();
  ASSERT_NE(rig.FindReply(1), nullptr);
  EXPECT_EQ(rig.FindReply(1)->msg.cached, 1);
}

TEST(Controller, NoCloningRetriedFetchKeepsOnePacket) {
  // After a switch reset the rebuild's fetch outlives fetch_timeout at a
  // slow server and is retried. The first reply becomes the cache packet;
  // the retry's reply finds that packet orbiting and is only an ack.
  RigConfig cfg = ControllerRig();
  cfg.orbit.enable_cloning = false;
  cfg.server_rate_rps = 10'000;  // 100 us per request
  cfg.controller.fetch_timeout = 50 * kMicrosecond;
  Rig rig(cfg);
  const Key a = K(1);
  rig.controller().Preload({a});
  rig.Settle();
  ASSERT_EQ(rig.sw().stats().recirc_in_flight, 1);

  rig.sw().ResetDataPlane();
  rig.controller().RebuildCache();
  rig.Settle();
  rig.Settle();

  const auto& cs = rig.controller().stats();
  EXPECT_EQ(cs.fetch_retries, 1u);
  EXPECT_EQ(cs.fetch_failures, 0u);
  EXPECT_EQ(cs.evictions, 0u);
  EXPECT_EQ(rig.sw().stats().recirc_in_flight, 1) << "one packet per key";
  rig.SendRead(a, 1);
  rig.Settle();
  ASSERT_NE(rig.FindReply(1), nullptr);
  EXPECT_EQ(rig.FindReply(1)->msg.cached, 1);
}

TEST(Controller, NoCloningWriteReplyRefetchesTheValue) {
  // A write takes the entry's packet out of orbit and its reply leaves
  // for the client; the entry refetches the new value to serve again.
  RigConfig cfg = ControllerRig();
  cfg.orbit.enable_cloning = false;
  Rig rig(cfg);
  const Key a = K(1);
  rig.controller().Preload({a});
  rig.Settle();

  rig.SendWrite(a, 1, 128);
  rig.Settle();
  ASSERT_NE(rig.FindReply(1), nullptr);
  EXPECT_EQ(rig.FindReply(1)->msg.op, proto::Op::kWriteRep);
  EXPECT_EQ(rig.program().stats().refetches, 1u);

  rig.SendRead(a, 2);
  rig.Settle();
  ASSERT_NE(rig.FindReply(2), nullptr) << "no cache packet answered";
  EXPECT_EQ(rig.FindReply(2)->msg.cached, 1);
  EXPECT_EQ(rig.FindReply(2)->msg.value.size(), 128u);
  EXPECT_EQ(rig.sw().stats().recirc_in_flight, 1);
}

TEST(Controller, RefusesOversizedConfiguration) {
  RigConfig cfg = ControllerRig();
  cfg.controller.max_cache_size = 999;  // > data-plane capacity of 32
  EXPECT_THROW(Rig rig(cfg), CheckFailure);
}

}  // namespace
}  // namespace orbit::oc
