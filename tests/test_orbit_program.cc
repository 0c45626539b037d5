// Data-plane behaviour of the OrbitCache program (paper §3.3, Fig. 4).
#include "orbitcache/program.h"

#include <gtest/gtest.h>

#include "tests/orbit_rig.h"

namespace orbit::oc {
namespace {

using testrig::Rig;
using testrig::RigConfig;

RigConfig SmallRig() {
  RigConfig cfg;
  cfg.orbit.capacity = 8;
  cfg.orbit.queue_size = 4;
  cfg.num_servers = 2;
  return cfg;
}

TEST(OrbitProgram, ReadMissForwardsToServer) {
  Rig rig(SmallRig());
  rig.SendRead("uncached-key-000", 1);
  rig.Settle();
  const auto* reply = rig.FindReply(1);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->msg.op, proto::Op::kReadRep);
  EXPECT_EQ(reply->msg.cached, 0);
  EXPECT_EQ(rig.program().stats().read_misses, 1u);
  EXPECT_EQ(rig.ServerFor("uncached-key-000").stats().reads, 1u);
}

TEST(OrbitProgram, CachedReadServedBySwitchWithoutServer) {
  Rig rig(SmallRig());
  const Key key = "hot-key-00000000";
  rig.CacheAndFetch(key, 0);
  const uint64_t server_reads = rig.ServerFor(key).stats().reads;

  rig.SendRead(key, 5);
  rig.Settle();
  const auto* reply = rig.FindReply(5);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->msg.op, proto::Op::kReadRep);
  EXPECT_EQ(reply->msg.cached, 1) << "served by the switch";
  EXPECT_EQ(reply->msg.key, key);
  EXPECT_EQ(reply->msg.value.size(), 64u);
  EXPECT_EQ(rig.ServerFor(key).stats().reads, server_reads)
      << "the server must not see the request";
  EXPECT_EQ(rig.program().stats().absorbed, 1u);
  EXPECT_EQ(rig.program().stats().served_by_cache, 1u);
}

TEST(OrbitProgram, CloneGroupFollowsTheRoute) {
  // The rig never calls RegisterCloneTarget: the client's clone group
  // comes from its route, and a repointed route moves it.
  Rig rig(SmallRig());
  const Key key = "hot-key-00000000";
  rig.CacheAndFetch(key, 0);
  rig.SendRead(key, 1);
  rig.Settle();
  ASSERT_NE(rig.FindReply(1), nullptr);
  EXPECT_EQ(rig.FindReply(1)->msg.cached, 1);
  ASSERT_EQ(rig.sw().stats().recirc_in_flight, 1);

  Rig::ClientPort moved(&rig.sim());
  const int other_port =
      rig.net().Connect(&moved, &rig.sw(), sim::LinkConfig{}).port_b;
  rig.sw().AddRoute(testrig::kClientAddr, other_port);
  rig.SendRead(key, 2);
  rig.Settle();
  EXPECT_EQ(rig.FindReply(2), nullptr) << "the old port sees no reply";
  ASSERT_EQ(moved.replies.size(), 1u);
  EXPECT_EQ(moved.replies[0].msg.seq, 2u);
  EXPECT_EQ(moved.replies[0].msg.cached, 1) << "served by the switch";
  EXPECT_EQ(rig.sw().stats().recirc_in_flight, 1)
      << "the cache packet keeps orbiting";
  EXPECT_EQ(rig.program().stats().served_by_cache, 2u);
}

TEST(OrbitProgram, OneCachePacketServesManyRequests) {
  // The PRE-clone property (§3.5): a single fetch serves any number of
  // subsequent requests.
  Rig rig(SmallRig());
  const Key key = "hot-key-00000000";
  rig.CacheAndFetch(key, 0);
  const uint64_t fetches = rig.ServerFor(key).stats().fetches;

  for (uint32_t seq = 10; seq < 40; ++seq) {
    rig.SendRead(key, seq);
    rig.Run(10 * kMicrosecond);
  }
  rig.Settle();
  for (uint32_t seq = 10; seq < 40; ++seq)
    EXPECT_NE(rig.FindReply(seq), nullptr) << "seq " << seq;
  EXPECT_EQ(rig.ServerFor(key).stats().fetches, fetches)
      << "no refetching with cloning enabled";
  EXPECT_EQ(rig.sw().stats().recirc_in_flight, 1)
      << "exactly one cache packet keeps orbiting";
}

TEST(OrbitProgram, RequestTableOverflowGoesToServer) {
  RigConfig cfg = SmallRig();
  cfg.orbit.queue_size = 2;
  Rig rig(cfg);
  const Key key = "hot-key-00000000";
  rig.CacheAndFetch(key, 0);

  // A burst of 10 reads arrives back-to-back, far faster than one orbit
  // of the cache packet: 2 fit the queue, the rest overflow to the server.
  const uint64_t server_reads_before = rig.ServerFor(key).stats().reads;
  for (uint32_t seq = 100; seq < 110; ++seq) rig.SendRead(key, seq);
  rig.Settle();
  EXPECT_GE(rig.program().stats().overflow_to_server, 6u);
  EXPECT_GT(rig.ServerFor(key).stats().reads, server_reads_before);
  // Every request still gets an answer from somewhere.
  for (uint32_t seq = 100; seq < 110; ++seq)
    EXPECT_NE(rig.FindReply(seq), nullptr) << seq;
}

TEST(OrbitProgram, WriteInvalidatesAndFlagsCachedItem) {
  Rig rig(SmallRig());
  const Key key = "hot-key-00000000";
  rig.CacheAndFetch(key, 0);
  ASSERT_TRUE(rig.program().IsValid(0));

  rig.SendWrite(key, 20, 128);
  rig.Run(2 * kMicrosecond);  // W-REQ passed the switch, reply not yet back
  EXPECT_FALSE(rig.program().IsValid(0)) << "invalidated on the way in";
  rig.Settle();
  const auto* reply = rig.FindReply(20);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->msg.op, proto::Op::kWriteRep);
  EXPECT_NE(reply->msg.flag & proto::kFlagCachedWrite, 0)
      << "server was told the item is cached";
  EXPECT_TRUE(rig.program().IsValid(0)) << "write reply revalidates";
  // The refreshed cache packet carries the new value.
  rig.SendRead(key, 21);
  rig.Settle();
  const auto* read = rig.FindReply(21);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->msg.cached, 1);
  EXPECT_EQ(read->msg.value.size(), 128u);
  EXPECT_EQ(read->msg.value.version(), 2u);  // synthesize=1, write=2
}

TEST(OrbitProgram, ReadDuringInvalidWindowGoesToServer) {
  RigConfig cfg = SmallRig();
  cfg.server_rate_rps = 10'000;  // slow server: wide invalid window
  Rig rig(cfg);
  const Key key = "hot-key-00000000";
  rig.CacheAndFetch(key, 0);

  rig.SendWrite(key, 30, 64);
  rig.Run(20 * kMicrosecond);  // write still queued at the server
  ASSERT_FALSE(rig.program().IsValid(0));
  rig.SendRead(key, 31);
  rig.Settle();
  rig.Run(300 * kMicrosecond);
  const auto* read = rig.FindReply(31);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->msg.cached, 0) << "served by the server, not the stale cache";
  EXPECT_GT(rig.program().stats().invalid_to_server, 0u);
}

TEST(OrbitProgram, EvictionRetiresCachePacket) {
  Rig rig(SmallRig());
  const Key key = "hot-key-00000000";
  rig.CacheAndFetch(key, 0);
  ASSERT_EQ(rig.sw().stats().recirc_in_flight, 1);
  rig.program().EraseEntry(HashKey128(key));
  rig.Settle();
  EXPECT_EQ(rig.sw().stats().recirc_in_flight, 0)
      << "packet dropped on its next pass after eviction";
  EXPECT_GT(rig.program().stats().cp_drop_evicted, 0u);
}

TEST(OrbitProgram, CorrectionRequestBypassesCache) {
  Rig rig(SmallRig());
  const Key key = "hot-key-00000000";
  rig.CacheAndFetch(key, 0);
  const uint64_t absorbed = rig.program().stats().absorbed;
  rig.SendCorrection(key, 40);
  rig.Settle();
  const auto* reply = rig.FindReply(40);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->msg.cached, 0) << "CRN-REQ must reach the server";
  EXPECT_EQ(rig.program().stats().absorbed, absorbed);
  EXPECT_EQ(rig.program().stats().corrections_forwarded, 1u);
  EXPECT_EQ(rig.ServerFor(key).stats().corrections, 1u);
}

TEST(OrbitProgram, PopularityCountersTrackReads) {
  Rig rig(SmallRig());
  const Key a = "hot-key-aaaaaaaa", b = "hot-key-bbbbbbbb";
  rig.CacheAndFetch(a, 0);
  rig.CacheAndFetch(b, 1);
  for (uint32_t i = 0; i < 5; ++i) {
    rig.SendRead(a, 100 + i);
    rig.Run(5 * kMicrosecond);
  }
  rig.SendRead(b, 200);
  rig.Settle();
  auto pop = rig.program().ReadAndResetPopularity();
  EXPECT_EQ(pop[0], 5u);
  EXPECT_EQ(pop[1], 1u);
  // Read-and-reset semantics.
  pop = rig.program().ReadAndResetPopularity();
  EXPECT_EQ(pop[0], 0u);

  const auto ho = rig.program().ReadAndResetHitOverflow();
  EXPECT_EQ(ho.hits, 6u);
  EXPECT_EQ(rig.program().ReadAndResetHitOverflow().hits, 0u);
}

TEST(OrbitProgram, UncachedWriteIsPlainWriteThrough) {
  Rig rig(SmallRig());
  rig.SendWrite("cold-key-0000000", 50, 99);
  rig.Settle();
  const auto* reply = rig.FindReply(50);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->msg.op, proto::Op::kWriteRep);
  EXPECT_EQ(reply->msg.flag & proto::kFlagCachedWrite, 0);
  EXPECT_EQ(reply->msg.value.size(), 0u) << "no value appended when uncached";
  EXPECT_GT(reply->msg.value.version(), 0u);
  EXPECT_EQ(rig.program().stats().writes_uncached, 1u);
}

TEST(OrbitProgram, InsertEntryRejectsBadIndexAndFullTable) {
  Rig rig(SmallRig());
  EXPECT_THROW(rig.program().InsertEntry(Hash128{1, 1}, 8), CheckFailure);
  for (uint32_t i = 0; i < 8; ++i)
    ASSERT_TRUE(rig.program().InsertEntry(Hash128{i, i}, i));
  EXPECT_FALSE(rig.program().InsertEntry(Hash128{9, 9}, 0))
      << "lookup table at capacity";
}

TEST(OrbitProgram, ReplyStampedBeforeAResetCannotRevalidate) {
  // A write reply that waits out a switch reset (in a server queue, say)
  // must not match an epoch that a write after the rebuild is given.
  Rig rig(SmallRig());
  const Key key = "hot-key-00000000";
  const Hash128 hkey = HashKey128(key);
  const Addr server = rig.ServerAddrFor(key);
  auto pass_write = [&] {
    proto::Message msg;
    msg.op = proto::Op::kWriteReq;
    msg.hkey = hkey;
    msg.key = key;
    msg.value = kv::Value::Synthetic(64, 0);
    auto pkt = sim::MakePacket(testrig::kClientAddr, server, 9000,
                               testrig::kPort, std::move(msg));
    rig.program().Ingress(*pkt, rig.sw());
    return pkt->msg;
  };

  ASSERT_TRUE(rig.program().InsertEntry(hkey, 0));
  pass_write();
  const proto::Message before_reset = pass_write();
  rig.sw().ResetDataPlane();
  ASSERT_TRUE(rig.program().InsertEntry(hkey, 0));  // the rebuild
  pass_write();
  pass_write();

  proto::Message msg = before_reset;
  msg.op = proto::Op::kWriteRep;
  msg.value = kv::Value::Synthetic(64, 3);
  auto reply = sim::MakePacket(server, testrig::kClientAddr, testrig::kPort,
                               9000, std::move(msg));
  rig.program().Ingress(*reply, rig.sw());
  EXPECT_FALSE(rig.program().IsValid(0))
      << "a reply from before the reset revalidated the entry";
  EXPECT_EQ(rig.program().stats().validations, 0u);
  EXPECT_EQ(rig.program().stats().stale_validations_skipped, 1u);
}

TEST(OrbitProgram, ResourceFootprintMatchesPaper) {
  // §4: the prototype fits in 9 stages with modest SRAM.
  Rig rig(SmallRig());
  EXPECT_EQ(rig.sw().resources().stages_used(), 9);
  EXPECT_LT(rig.sw().resources().sram_fraction_used(), 0.1);
}

}  // namespace
}  // namespace orbit::oc
