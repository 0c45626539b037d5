// §3.10 write-back extension: the switch absorbs writes for cached items,
// replies immediately, keeps the dirty value circulating, and flushes it
// to the storage server on eviction.
#include <gtest/gtest.h>

#include "tests/orbit_rig.h"

namespace orbit::oc {
namespace {

using testrig::Rig;
using testrig::RigConfig;

RigConfig WriteBackRig() {
  RigConfig cfg;
  cfg.orbit.capacity = 8;
  cfg.orbit.write_back = true;
  cfg.num_servers = 1;
  return cfg;
}

TEST(WriteBack, CachedWriteAnsweredBySwitch) {
  Rig rig(WriteBackRig());
  const Key key = "hot-key-00000000";
  rig.CacheAndFetch(key, 0);
  const uint64_t server_writes = rig.ServerFor(key).stats().writes;

  rig.SendWrite(key, 1, 128, /*version=*/10);
  rig.Settle();
  const auto* reply = rig.FindReply(1);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->msg.op, proto::Op::kWriteRep);
  EXPECT_EQ(reply->msg.cached, 1) << "the switch minted the reply";
  EXPECT_EQ(rig.ServerFor(key).stats().writes, server_writes)
      << "the server must not see the write";
  EXPECT_EQ(rig.program().stats().wb_returned_replies, 1u);
}

TEST(WriteBack, SubsequentReadsSeeTheDirtyValue) {
  Rig rig(WriteBackRig());
  const Key key = "hot-key-00000000";
  rig.CacheAndFetch(key, 0);
  rig.SendWrite(key, 1, 256);
  rig.Settle();

  rig.SendRead(key, 2);
  rig.Settle();
  const auto* read = rig.FindReply(2);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->msg.cached, 1);
  EXPECT_EQ(read->msg.value.size(), 256u);
  EXPECT_EQ(read->msg.value.version(), 2u)
      << "fetch loaded v1; the absorbed write bumped it to v2";
  EXPECT_EQ(rig.sw().stats().recirc_in_flight, 1)
      << "the dirty packet replaced the clean one";
}

TEST(WriteBack, RepeatedWritesKeepOnePacketNewestWins) {
  Rig rig(WriteBackRig());
  const Key key = "hot-key-00000000";
  rig.CacheAndFetch(key, 0);
  for (uint64_t v = 1; v <= 5; ++v) {
    rig.SendWrite(key, static_cast<uint32_t>(10 + v), 64);
    rig.Run(5 * kMicrosecond);
  }
  rig.Settle();
  EXPECT_EQ(rig.sw().stats().recirc_in_flight, 1);
  rig.SendRead(key, 20);
  rig.Settle();
  ASSERT_NE(rig.FindReply(20), nullptr);
  EXPECT_EQ(rig.FindReply(20)->msg.value.version(), 6u)
      << "v1 fetched + five switch-serialized writes";
}

TEST(WriteBack, EvictionFlushesDirtyValueToServer) {
  Rig rig(WriteBackRig());
  const Key key = "hot-key-00000000";
  rig.CacheAndFetch(key, 0);
  rig.SendWrite(key, 1, 200);
  rig.Settle();
  ASSERT_EQ(rig.ServerFor(key).stats().flushes, 0u);

  // Evict: the dirty packet's next pass misses the lookup and converts
  // itself into a flush write toward its storage server.
  rig.program().EraseEntry(HashKey128(key));
  rig.Settle();
  EXPECT_EQ(rig.program().stats().wb_flushes, 1u);
  EXPECT_EQ(rig.ServerFor(key).stats().flushes, 1u);
  EXPECT_EQ(rig.sw().stats().recirc_in_flight, 0);

  // The server now holds the written value.
  rig.SendRead(key, 2);
  rig.Settle();
  const auto* read = rig.FindReply(2);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->msg.cached, 0);
  EXPECT_EQ(read->msg.value.version(), 2u) << "the flushed write";
  EXPECT_EQ(read->msg.value.size(), 200u);
}

TEST(WriteBack, CleanEvictionDoesNotFlush) {
  Rig rig(WriteBackRig());
  const Key key = "hot-key-00000000";
  rig.CacheAndFetch(key, 0);  // fetched from the server: clean
  rig.program().EraseEntry(HashKey128(key));
  rig.Settle();
  EXPECT_EQ(rig.program().stats().wb_flushes, 0u);
  EXPECT_EQ(rig.ServerFor(key).stats().flushes, 0u);
}

TEST(WriteBack, UncachedWritesStillWriteThrough) {
  Rig rig(WriteBackRig());
  rig.SendWrite("cold-key-0000000", 1, 64);
  rig.Settle();
  const auto* reply = rig.FindReply(1);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->msg.cached, 0);
  EXPECT_EQ(rig.ServerFor("cold-key-0000000").stats().writes, 1u);
}

TEST(WriteBack, SnapshotFlushesWithoutLosingTheCachePacket) {
  Rig rig(WriteBackRig());
  const Key key = "hot-key-00000000";
  rig.CacheAndFetch(key, 0);
  rig.SendWrite(key, 1, 128);  // dirty, v2
  rig.Settle();
  ASSERT_EQ(rig.ServerFor(key).stats().flushes, 0u);

  EXPECT_EQ(rig.program().RequestSnapshot(), 1u);
  rig.Settle();
  // The server received the value; the packet kept orbiting and serves.
  EXPECT_EQ(rig.program().stats().wb_snapshot_flushes, 1u);
  EXPECT_EQ(rig.ServerFor(key).stats().flushes, 1u);
  EXPECT_EQ(rig.sw().stats().recirc_in_flight, 1);
  auto stored = rig.ServerFor(key).store().Get(key);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->version(), 2u);

  rig.SendRead(key, 5);
  rig.Settle();
  ASSERT_NE(rig.FindReply(5), nullptr);
  EXPECT_EQ(rig.FindReply(5)->msg.cached, 1);
  EXPECT_EQ(rig.FindReply(5)->msg.value.version(), 2u);

  // Clean entries are not re-flushed.
  EXPECT_EQ(rig.program().RequestSnapshot(), 0u);
}

TEST(WriteBack, SnapshotBoundsCrashLoss) {
  Rig rig(WriteBackRig());
  const Key key = "hot-key-00000000";
  rig.CacheAndFetch(key, 0);
  rig.SendWrite(key, 1, 64);  // v2
  rig.Settle();
  rig.program().RequestSnapshot();
  rig.Settle();
  rig.SendWrite(key, 2, 64);  // v3, post-snapshot (would be lost)
  rig.Settle();

  rig.sw().ResetDataPlane();  // crash
  rig.Settle();
  auto stored = rig.ServerFor(key).store().Get(key);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->version(), 2u)
      << "loss bounded to writes after the last snapshot";
}

TEST(WriteBack, ControllerDrivesPeriodicSnapshots) {
  RigConfig cfg = WriteBackRig();
  cfg.with_controller = true;
  cfg.controller.cache_size = 2;
  cfg.controller.max_cache_size = 8;
  cfg.controller.update_period = 2 * kMillisecond;
  cfg.controller.snapshot_period = 4 * kMillisecond;
  Rig rig(cfg);
  const Key key = "hot-key-00000000";
  rig.controller().Preload({key});
  rig.controller().Start();
  rig.Settle();

  rig.SendWrite(key, 1, 64);
  rig.Run(10 * kMillisecond);  // at least one snapshot period
  EXPECT_GE(rig.controller().stats().snapshot_entries_flushed, 1u);
  EXPECT_GE(rig.ServerFor(key).stats().flushes, 1u);
  auto stored = rig.ServerFor(key).store().Get(key);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->version(), 2u);
  EXPECT_EQ(rig.sw().stats().recirc_in_flight, 1);
}

TEST(WriteBack, RequiresEpochGuard) {
  rmt::AsicConfig asic;
  sim::Simulator sim;
  sim::Network net(&sim);
  rmt::SwitchDevice sw(&sim, &net, "sw", asic);
  OrbitConfig bad;
  bad.write_back = true;
  bad.epoch_guard = false;
  EXPECT_THROW(OrbitProgram(&sw, bad), CheckFailure);
}

}  // namespace
}  // namespace orbit::oc
