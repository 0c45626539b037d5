// Open-loop client behaviour: pacing, pending-list matching, client-side
// collision resolution (§3.6), staleness accounting, and timeouts.
#include "apps/client.h"

#include <gtest/gtest.h>

#include "sim/network.h"
#include "sim/simulator.h"

namespace orbit::app {
namespace {

constexpr Addr kClientAddr = 1, kServerAddr = 2;

// A scriptable peer standing in for switch+server: echoes read replies,
// optionally with a wrong key (hash collision) or a stale version.
class MockPeer : public sim::Node {
 public:
  MockPeer(sim::Simulator* sim, sim::Network* net) : sim_(sim), net_(net) {}

  void OnPacket(sim::PacketPtr pkt, int) override {
    ++requests;
    last_op = pkt->msg.op;
    if (pkt->msg.op == proto::Op::kCorrectionReq) ++corrections;
    if (drop_all) return;
    proto::Message rep = pkt->msg;
    rep.op = pkt->msg.op == proto::Op::kWriteReq ? proto::Op::kWriteRep
                                                 : proto::Op::kReadRep;
    if (pkt->msg.op == proto::Op::kWriteReq) {
      rep.value = kv::Value::Synthetic(0, ++version);
    } else if (pkt->msg.op == proto::Op::kCorrectionReq) {
      rep.value = kv::Value::Synthetic(64, version);
    } else {
      rep.value = kv::Value::Synthetic(64, stale_reads ? 1 : version);
      if (collide_next) {
        rep.key = "WRONG-KEY-000000";
        collide_next = false;
      }
    }
    const Addr dst = pkt->src;
    rep.seq = pkt->msg.seq;
    if (frag_count > 1 && rep.op == proto::Op::kReadRep) {
      // Multi-packet reply: one packet per fragment, optionally repeating
      // fragment `dup_frag_index` to exercise duplicate accounting.
      for (int i = 0; i < frag_count; ++i) {
        const int copies = i == dup_frag_index ? 2 : 1;
        for (int c = 0; c < copies; ++c) {
          proto::Message frag = rep;
          frag.frag_index = static_cast<uint8_t>(i);
          frag.frag_total = static_cast<uint8_t>(frag_count);
          auto out = sim::MakePacket(kServerAddr, dst, pkt->dport, pkt->sport,
                                     std::move(frag));
          net_->Send(this, 0, std::move(out));
        }
      }
      return;
    }
    for (int c = 0; c < (reply_twice ? 2 : 1); ++c) {
      proto::Message copy = rep;
      auto out = sim::MakePacket(kServerAddr, dst, pkt->dport, pkt->sport,
                                 std::move(copy));
      net_->Send(this, 0, std::move(out));
    }
  }
  std::string name() const override { return "mock-peer"; }

  int requests = 0;
  int corrections = 0;
  uint64_t version = 5;
  bool collide_next = false;
  bool stale_reads = false;
  bool drop_all = false;
  bool reply_twice = false;
  int frag_count = 1;       // >1: split read replies into this many packets
  int dup_frag_index = -1;  // resend this fragment once more
  proto::Op last_op = proto::Op::kReadReq;

 private:
  sim::Simulator* sim_;
  sim::Network* net_;
};

// A workload that always asks for one key.
class OneKeyWorkload : public WorkloadSource {
 public:
  explicit OneKeyWorkload(double write_ratio = 0) : write_ratio_(write_ratio) {}
  Request Next(Rng& rng) override {
    Request req;
    req.key = "the-one-key-0000";
    req.hkey = HashKey128(req.key);
    req.server = kServerAddr;
    req.is_write = rng.Bernoulli(write_ratio_);
    req.value_size = 64;
    return req;
  }

 private:
  double write_ratio_;
};

class ClientTest : public ::testing::Test {
 protected:
  void Build(double rate, double write_ratio = 0, int max_retries = 0) {
    ClientConfig cfg;
    cfg.addr = kClientAddr;
    cfg.rate_rps = rate;
    cfg.seed = 3;
    cfg.request_timeout = 5 * kMillisecond;
    cfg.max_retries = max_retries;
    client_ = std::make_unique<ClientNode>(
        &sim_, &net_, 0, cfg, std::make_shared<OneKeyWorkload>(write_ratio));
    peer_ = std::make_unique<MockPeer>(&sim_, &net_);
    net_.Connect(client_.get(), peer_.get(), sim::LinkConfig{});
    client_->Start();
  }

  sim::Simulator sim_;
  sim::Network net_{&sim_};
  std::unique_ptr<ClientNode> client_;
  std::unique_ptr<MockPeer> peer_;
};

TEST_F(ClientTest, OpenLoopRateIsRespected) {
  Build(100'000);  // 10us mean gap
  sim_.RunUntil(100 * kMillisecond);
  // ~10000 expected; Poisson noise is ~1%.
  EXPECT_NEAR(static_cast<double>(client_->stats().tx_requests), 10000, 500);
  EXPECT_EQ(client_->stats().rx_replies, client_->stats().tx_requests);
  EXPECT_EQ(client_->stats().timeouts, 0u);
}

TEST_F(ClientTest, MeasurementWindowFiltersLatency) {
  Build(50'000);
  sim_.RunUntil(10 * kMillisecond);
  EXPECT_EQ(client_->server_read_latency().count(), 0u) << "window not open";
  client_->OpenWindow();
  const uint64_t rx_before = client_->stats().rx_replies;
  sim_.RunUntil(30 * kMillisecond);
  client_->CloseWindow();
  const uint64_t measured = client_->server_read_latency().count();
  EXPECT_GT(measured, 500u);
  // Above 40K replies/s over the 20 ms window; every one is a server read.
  EXPECT_GT(client_->stats().rx_replies - rx_before, 800u);
  EXPECT_EQ(measured, client_->stats().rx_replies - rx_before);
  // Latency ≈ two link hops (~1us each way + serialization).
  EXPECT_GT(client_->server_read_latency().Median(), 500);
  EXPECT_LT(client_->server_read_latency().Median(), 5000);
}

TEST_F(ClientTest, CollisionTriggersAutomaticCorrection) {
  Build(10'000);
  sim_.RunUntil(500 * kMicrosecond);  // a few requests through
  peer_->collide_next = true;
  sim_.RunUntil(2 * kMillisecond);
  EXPECT_EQ(client_->stats().collisions, 1u);
  EXPECT_EQ(peer_->corrections, 1) << "client sent CRN-REQ";
  EXPECT_EQ(client_->stats().timeouts, 0u);
}

TEST_F(ClientTest, StaleVersionsAreCounted) {
  Build(20'000);
  sim_.RunUntil(2 * kMillisecond);  // observe version 5 first
  peer_->stale_reads = true;        // now every reply regresses to 1
  sim_.RunUntil(4 * kMillisecond);
  EXPECT_GT(client_->stats().stale_reads, 0u);
}

TEST_F(ClientTest, DroppedRepliesBecomeTimeouts) {
  Build(20'000);
  sim_.RunUntil(2 * kMillisecond);
  peer_->drop_all = true;
  sim_.RunUntil(4 * kMillisecond);
  peer_->drop_all = false;
  sim_.RunUntil(12 * kMillisecond);
  EXPECT_GT(client_->stats().timeouts, 10u);
  // Late replies to pruned requests count as strays, not crashes.
  EXPECT_EQ(client_->stats().stale_reads, 0u);
}

TEST_F(ClientTest, WritesCarryClientStampedVersions) {
  Build(20'000, /*write_ratio=*/1.0);
  sim_.RunUntil(2 * kMillisecond);
  EXPECT_GT(client_->stats().writes_sent, 10u);
  EXPECT_EQ(client_->stats().reads_sent, 0u);
  EXPECT_EQ(peer_->last_op, proto::Op::kWriteReq);
  client_->OpenWindow();
  sim_.RunUntil(4 * kMillisecond);
  client_->CloseWindow();
  EXPECT_GT(client_->write_latency().count(), 0u);
}

TEST_F(ClientTest, StopHaltsTraffic) {
  Build(100'000);
  sim_.RunUntil(5 * kMillisecond);
  client_->Stop();
  const uint64_t tx = client_->stats().tx_requests;
  sim_.RunUntil(20 * kMillisecond);
  EXPECT_EQ(client_->stats().tx_requests, tx);
}

// Regression (>32-fragment aliasing): a 40-fragment reply must complete
// exactly once, with every distinct fragment counted — the old 32-bit
// bitmap aliased indices ≥ 32 and completed early.
TEST_F(ClientTest, LargeFragmentCountsReassembleExactly) {
  Build(10'000);
  peer_->frag_count = 40;
  sim_.RunUntil(20 * kMillisecond);
  client_->Stop();  // retire the (at most one) partially-arrived reply
  EXPECT_GT(client_->stats().tx_requests, 50u);
  EXPECT_EQ(client_->stats().rx_replies + client_->stats().inflight_at_stop,
            client_->stats().tx_requests);
  EXPECT_GT(client_->stats().rx_replies, 50u);
  EXPECT_EQ(client_->stats().duplicate_frags, 0u);
  EXPECT_EQ(client_->stats().timeouts, 0u);
}

TEST_F(ClientTest, DuplicateFragmentsAreCountedNotDoubleCompleted) {
  Build(10'000);
  peer_->frag_count = 40;
  peer_->dup_frag_index = 35;  // index above the old 32-bit bitmap range
  sim_.RunUntil(20 * kMillisecond);
  client_->Stop();
  EXPECT_EQ(client_->stats().rx_replies + client_->stats().inflight_at_stop,
            client_->stats().tx_requests);
  EXPECT_GE(client_->stats().duplicate_frags, client_->stats().rx_replies);
  EXPECT_EQ(client_->stats().stray_replies, 0u);
}

// The deadline is exact: a request sent at t times out at t + timeout, not
// at the next multiple of a sweep period.
TEST_F(ClientTest, TimeoutFiresExactlyAtDeadline) {
  Build(100'000);
  peer_->drop_all = true;
  sim_.RunUntil(5 * kMillisecond);  // no deadline can have passed yet
  EXPECT_EQ(client_->stats().timeouts, 0u);
  sim_.RunUntil(5 * kMillisecond + 500 * kMicrosecond);
  // Everything sent in the first 500us has now timed out (~50 requests at
  // a 10us mean gap); the old 5ms sweep wouldn't fire until 10ms.
  EXPECT_GT(client_->stats().timeouts, 10u);
}

TEST_F(ClientTest, StopRetiresInflightExplicitly) {
  Build(20'000);
  peer_->drop_all = true;
  sim_.RunUntil(3 * kMillisecond);  // inside the 5ms timeout: all pending
  client_->Stop();
  EXPECT_EQ(client_->stats().timeouts, 0u);
  EXPECT_GT(client_->stats().inflight_at_stop, 10u);
  EXPECT_EQ(client_->stats().inflight_at_stop, client_->stats().tx_requests);
  // The armed deadline events fire into the cleared map: no late timeouts.
  sim_.RunUntil(30 * kMillisecond);
  EXPECT_EQ(client_->stats().timeouts, 0u);
}

// §3.9: a loss episode shorter than the retry budget costs retransmissions
// but zero requests.
TEST_F(ClientTest, RetransmissionRecoversFromLossEpisode) {
  Build(20'000, /*write_ratio=*/0, /*max_retries=*/2);
  sim_.RunUntil(2 * kMillisecond);
  peer_->drop_all = true;
  sim_.RunUntil(4 * kMillisecond);
  peer_->drop_all = false;
  // First retry lands 5ms after first send; run long enough for all of
  // them (and their backoff doubles) to drain.
  sim_.RunUntil(40 * kMillisecond);
  client_->Stop();
  EXPECT_GT(client_->stats().retransmissions, 10u);
  EXPECT_EQ(client_->stats().timeouts, 0u);
  EXPECT_EQ(client_->stats().rx_replies, client_->stats().tx_requests);
}

TEST_F(ClientTest, RetryBudgetExhaustionBecomesTimeout) {
  Build(20'000, /*write_ratio=*/0, /*max_retries=*/2);
  peer_->drop_all = true;  // nothing ever answers
  // Backoff schedule per request: retries at t+5ms and t+15ms, giving up
  // at t+35ms — so no request sent after 0 can have timed out by 34ms.
  sim_.RunUntil(34 * kMillisecond);
  EXPECT_EQ(client_->stats().timeouts, 0u);
  EXPECT_GT(client_->stats().retransmissions, 100u);
  sim_.RunUntil(41 * kMillisecond);
  EXPECT_GT(client_->stats().timeouts, 10u)
      << "requests sent in the first 5ms exhausted their budget";
}

// At-most-once: duplicate replies (e.g. an original answer racing a
// retransmitted one) complete the request once and count as strays.
TEST_F(ClientTest, DuplicateRepliesAreStray) {
  Build(20'000);
  peer_->reply_twice = true;
  sim_.RunUntil(10 * kMillisecond);
  EXPECT_GT(client_->stats().rx_replies, 100u);
  EXPECT_EQ(client_->stats().stray_replies, client_->stats().rx_replies);
  EXPECT_EQ(client_->stats().timeouts, 0u);
}

// Regression: SEQ allocation near the 32-bit wrap. Matching, duplicate
// classification, and timeout accounting must be seamless across the
// UINT32_MAX -> 1 rollover (0 stays reserved as "unset").
TEST_F(ClientTest, SeqWraparoundKeepsMatchingSeamless) {
  Build(20'000);
  client_->set_next_seq_for_test(UINT32_MAX - 3);
  sim_.RunUntil(2 * kMillisecond);  // ~40 sends, rolling through the wrap
  EXPECT_GT(client_->stats().tx_requests, 10u);
  EXPECT_EQ(client_->stats().rx_replies, client_->stats().tx_requests);
  EXPECT_EQ(client_->stats().stray_replies, 0u);
  EXPECT_EQ(client_->stats().timeouts, 0u);
}

// Regression: a recycled SEQ that is still live (what the wrap produces
// when a slow request survives 2^32 sends) must not silently overwrite
// the pending entry — that orphans the original request's accounting.
TEST_F(ClientTest, RecycledSeqCannotOrphanALivePending) {
  Build(20'000);
  peer_->drop_all = true;          // every request stays pending
  sim_.RunUntil(500 * kMicrosecond);
  ASSERT_GT(client_->stats().tx_requests, 2u);
  // SEQs 1..tx_requests are all live; restart allocation at 1.
  client_->set_next_seq_for_test(1);
  sim_.RunUntil(3 * kMillisecond);  // more sends, all inside the 5ms timeout
  ASSERT_GT(client_->stats().tx_requests, 4u);
  // Retire everything while nothing has timed out yet: every sent request
  // must still be accounted for. An overwritten pending would vanish.
  client_->Stop();
  EXPECT_EQ(client_->stats().timeouts, 0u);
  EXPECT_EQ(client_->stats().inflight_at_stop, client_->stats().tx_requests);
}

// A workload with an unbounded stream of distinct keys, for the staleness
// tracking-map bound.
class ManyKeysWorkload : public WorkloadSource {
 public:
  Request Next(Rng&) override {
    Request req;
    req.key = "distinct-key-" + std::to_string(counter_++);
    req.hkey = HashKey128(req.key);
    req.server = kServerAddr;
    req.value_size = 64;
    return req;
  }

 private:
  uint64_t counter_ = 0;
};

// Regression: the stale-read check used to grow last_version_ with every
// distinct key forever; the map must respect staleness_max_keys.
TEST(ClientStaleness, TrackingMapRespectsConfiguredBound) {
  sim::Simulator sim;
  sim::Network net{&sim};
  ClientConfig cfg;
  cfg.addr = kClientAddr;
  cfg.rate_rps = 50'000;
  cfg.seed = 3;
  cfg.staleness_max_keys = 8;
  auto client = std::make_unique<ClientNode>(
      &sim, &net, 0, cfg, std::make_shared<ManyKeysWorkload>());
  MockPeer peer(&sim, &net);
  net.Connect(client.get(), &peer, sim::LinkConfig{});
  client->Start();
  sim.RunUntil(5 * kMillisecond);  // ~250 distinct keys stream through
  EXPECT_GT(client->stats().rx_replies, 50u);
  EXPECT_LE(client->staleness_tracked_keys(), 8u);
}

}  // namespace
}  // namespace orbit::app
