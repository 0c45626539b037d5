// Failure handling (paper §3.9): packet loss is absorbed by
// application-level timeouts (controller fetch retransmission, client
// request timeouts) and a switch failure loses only the cache, which the
// controller rebuilds like a radical popularity change.
#include <gtest/gtest.h>

#include "tests/orbit_rig.h"

namespace orbit::oc {
namespace {

using testrig::Rig;
using testrig::RigConfig;

TEST(Failures, ControllerRetransmitsLostFetches) {
  RigConfig cfg;
  cfg.orbit.capacity = 16;
  cfg.num_servers = 1;
  cfg.with_controller = true;
  cfg.controller.cache_size = 4;
  cfg.controller.max_cache_size = 16;
  cfg.controller.update_period = 2 * kMillisecond;
  cfg.controller.fetch_timeout = kMillisecond;
  cfg.controller.max_fetch_attempts = 100;  // keep retrying through loss
  cfg.server_link.loss_rate = 0.5;  // half of all packets vanish
  cfg.server_link.loss_seed = 7;
  Rig rig(cfg);

  rig.controller().Preload({"fkey-00000000001", "fkey-00000000002",
                            "fkey-00000000003", "fkey-00000000004"});
  rig.controller().Start();
  // Give the retry machinery several periods.
  rig.Run(60 * kMillisecond);

  EXPECT_GT(rig.controller().stats().fetch_retries, 0u)
      << "loss must trigger retransmission";
  EXPECT_EQ(rig.sw().stats().recirc_in_flight, 4)
      << "every preloaded key has exactly one live cache packet despite "
         "loss and retransmitted fetches";
}

TEST(Failures, LossyServerPathStillServesCachedReads) {
  RigConfig cfg;
  cfg.orbit.capacity = 8;
  cfg.num_servers = 1;
  cfg.server_link.loss_rate = 0.3;
  Rig rig(cfg);
  const Key key = "hot-key-00000000";
  // The fetch itself may be lost; retry manually until the packet orbits.
  rig.program().InsertEntry(HashKey128(key), 0);
  for (int attempt = 0; attempt < 20 && !rig.program().IsValid(0); ++attempt) {
    rig.SendFetch(key);
    rig.Settle();
  }
  ASSERT_TRUE(rig.program().IsValid(0));

  // Once the packet is orbiting, cached reads never touch the lossy
  // server path: 50 reads, 50 replies.
  for (uint32_t seq = 1; seq <= 50; ++seq) {
    rig.SendRead(key, seq);
    rig.Run(10 * kMicrosecond);
  }
  rig.Settle();
  int answered = 0;
  for (uint32_t seq = 1; seq <= 50; ++seq)
    if (rig.FindReply(seq) != nullptr) ++answered;
  EXPECT_EQ(answered, 50);
}

TEST(Failures, SwitchResetWipesDataPlane) {
  RigConfig cfg;
  cfg.orbit.capacity = 8;
  cfg.num_servers = 1;
  Rig rig(cfg);
  const Key key = "hot-key-00000000";
  rig.CacheAndFetch(key, 0);
  ASSERT_EQ(rig.sw().stats().recirc_in_flight, 1);

  rig.sw().ResetDataPlane();
  rig.Settle();
  EXPECT_EQ(rig.program().num_entries(), 0u);
  EXPECT_EQ(rig.sw().stats().recirc_in_flight, 0)
      << "orphaned cache packets die on their next pass";

  // Requests fall through to the servers — degraded but correct.
  rig.SendRead(key, 1);
  rig.Settle();
  ASSERT_NE(rig.FindReply(1), nullptr);
  EXPECT_EQ(rig.FindReply(1)->msg.cached, 0);
}

TEST(Failures, ControllerRebuildsCacheAfterSwitchReset) {
  RigConfig cfg;
  cfg.orbit.capacity = 16;
  cfg.num_servers = 2;
  cfg.with_controller = true;
  cfg.controller.cache_size = 3;
  cfg.controller.max_cache_size = 16;
  Rig rig(cfg);
  const std::vector<Key> keys = {"rkey-00000000001", "rkey-00000000002",
                                 "rkey-00000000003"};
  rig.controller().Preload(keys);
  rig.Settle();
  ASSERT_EQ(rig.sw().stats().recirc_in_flight, 3);

  // Crash and reboot the ASIC, then let the controller restore state.
  rig.sw().ResetDataPlane();
  rig.Settle();
  ASSERT_EQ(rig.sw().stats().recirc_in_flight, 0);
  rig.controller().RebuildCache();
  rig.Settle();

  EXPECT_EQ(rig.program().num_entries(), 3u);
  EXPECT_EQ(rig.sw().stats().recirc_in_flight, 3);
  for (size_t i = 0; i < keys.size(); ++i) {
    rig.SendRead(keys[i], 100 + static_cast<uint32_t>(i));
    rig.Settle();
    const auto* reply = rig.FindReply(100 + static_cast<uint32_t>(i));
    ASSERT_NE(reply, nullptr) << keys[i];
    EXPECT_EQ(reply->msg.cached, 1) << keys[i];
  }
}

TEST(Failures, BufferedRequestsLostInResetAreNotAnsweredTwice) {
  // Requests buffered in the request table at crash time are simply lost
  // (clients time out and retry at the application layer); after rebuild
  // nothing stale is replayed.
  RigConfig cfg;
  cfg.orbit.capacity = 8;
  cfg.num_servers = 1;
  Rig rig(cfg);
  const Key key = "hot-key-00000000";
  rig.CacheAndFetch(key, 0);
  // Plant a pending request, then crash before its next service pass.
  rig.program().request_table().TryEnqueue(
      0, RequestMeta{testrig::kClientAddr, 9000, 42, rig.sim().now()});
  rig.sw().ResetDataPlane();
  rig.Settle();
  EXPECT_EQ(rig.FindReply(42), nullptr);
  // Re-cache and serve normally.
  rig.CacheAndFetch(key, 0);
  rig.SendRead(key, 43);
  rig.Settle();
  ASSERT_NE(rig.FindReply(43), nullptr);
  EXPECT_EQ(rig.CountReplies(42), 0u);
}

TEST(Failures, UnreachableServerMakesControllerGiveUpAndEvict) {
  // A dead server partition: fetches exhaust their retry budget, the
  // controller evicts the entry, and requests degrade to (failing)
  // forwards rather than waiting forever.
  RigConfig cfg;
  cfg.orbit.capacity = 8;
  cfg.num_servers = 1;
  cfg.with_controller = true;
  cfg.controller.cache_size = 2;
  cfg.controller.max_cache_size = 8;
  cfg.controller.update_period = kMillisecond;
  cfg.controller.fetch_timeout = 500 * kMicrosecond;
  cfg.controller.max_fetch_attempts = 3;
  cfg.server_link.loss_rate = 1.0;  // the server is unreachable
  Rig rig(cfg);
  rig.controller().Preload({"dead-key-0000001"});
  rig.controller().Start();
  rig.Run(20 * kMillisecond);

  EXPECT_GE(rig.controller().stats().fetch_failures, 1u);
  EXPECT_EQ(rig.controller().num_cached(), 0u) << "entry evicted on give-up";
  EXPECT_EQ(rig.program().num_entries(), 0u);
  EXPECT_EQ(rig.sw().stats().recirc_in_flight, 0);
}

TEST(Failures, LinkLossCountsAreObservable) {
  RigConfig cfg;
  cfg.num_servers = 1;
  cfg.server_link.loss_rate = 1.0;  // sever the server path entirely
  Rig rig(cfg);
  rig.SendRead("any-key-00000000", 1);
  rig.Settle();
  EXPECT_EQ(rig.FindReply(1), nullptr);
}

}  // namespace
}  // namespace orbit::oc
