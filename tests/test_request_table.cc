#include "orbitcache/request_table.h"

#include <gtest/gtest.h>

#include <deque>

#include "common/check.h"
#include "common/random.h"
#include "rmt/resources.h"

namespace orbit::oc {
namespace {

class RequestTableTest : public ::testing::Test {
 protected:
  RequestTableTest() : res_(rmt::AsicConfig{}), table_(&res_, 16, 4, 2) {}

  static RequestMeta Meta(uint32_t seq) {
    return RequestMeta{seq + 1000, static_cast<L4Port>(seq + 10), seq,
                       static_cast<SimTime>(seq) * 100};
  }

  rmt::Resources res_;
  RequestTable table_;
};

TEST_F(RequestTableTest, FifoOrderWithinKey) {
  for (uint32_t i = 0; i < 4; ++i)
    ASSERT_TRUE(table_.TryEnqueue(3, Meta(i)));
  for (uint32_t i = 0; i < 4; ++i) {
    auto meta = table_.TryDequeue(3);
    ASSERT_TRUE(meta.has_value());
    EXPECT_EQ(meta->seq, i);
    EXPECT_EQ(meta->client_addr, i + 1000);
    EXPECT_EQ(meta->l4_port, i + 10);
    EXPECT_EQ(meta->enqueued_at, static_cast<SimTime>(i) * 100);
  }
  EXPECT_FALSE(table_.TryDequeue(3).has_value());
}

TEST_F(RequestTableTest, EnqueueFailsWhenFull) {
  for (uint32_t i = 0; i < 4; ++i) ASSERT_TRUE(table_.TryEnqueue(0, Meta(i)));
  EXPECT_FALSE(table_.TryEnqueue(0, Meta(99))) << "queue depth S = 4";
  // Overflow does not corrupt the buffered metadata.
  EXPECT_EQ(table_.TryDequeue(0)->seq, 0u);
}

TEST_F(RequestTableTest, WrapAroundReusesSlots) {
  // Fig. 5's circular behaviour: pointers wrap to slot 0 after S entries.
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(table_.TryEnqueue(5, Meta(static_cast<uint32_t>(round))));
    auto meta = table_.TryDequeue(5);
    ASSERT_TRUE(meta.has_value());
    EXPECT_EQ(meta->seq, static_cast<uint32_t>(round));
  }
  EXPECT_EQ(table_.QueueLength(5), 0u);
}

TEST_F(RequestTableTest, KeysAreIsolated) {
  // ReqIdx = CacheIdx * S + offset partitions the metadata arrays: filling
  // one key's queue must not affect another's.
  for (uint32_t i = 0; i < 4; ++i) ASSERT_TRUE(table_.TryEnqueue(1, Meta(i)));
  ASSERT_TRUE(table_.TryEnqueue(2, Meta(50)));
  EXPECT_EQ(table_.QueueLength(1), 4u);
  EXPECT_EQ(table_.QueueLength(2), 1u);
  EXPECT_EQ(table_.TryDequeue(2)->seq, 50u);
  EXPECT_EQ(table_.TryDequeue(1)->seq, 0u);
}

TEST_F(RequestTableTest, AdjacentKeysShareNoSlots) {
  // Neighbouring indices use adjacent array regions; interleaved traffic
  // must never bleed across.
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(table_.TryEnqueue(7, Meta(i)));
    ASSERT_TRUE(table_.TryEnqueue(8, Meta(i + 100)));
  }
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(table_.TryDequeue(7)->seq, i);
    EXPECT_EQ(table_.TryDequeue(8)->seq, i + 100);
  }
}

TEST_F(RequestTableTest, PeekDoesNotRemove) {
  table_.TryEnqueue(0, Meta(1));
  EXPECT_EQ(table_.Peek(0)->seq, 1u);
  EXPECT_EQ(table_.Peek(0)->seq, 1u);
  EXPECT_EQ(table_.QueueLength(0), 1u);
  EXPECT_EQ(table_.TryDequeue(0)->seq, 1u);
  EXPECT_FALSE(table_.Peek(0).has_value());
}

TEST_F(RequestTableTest, ClearQueueDiscards) {
  table_.TryEnqueue(0, Meta(1));
  table_.TryEnqueue(0, Meta(2));
  table_.ClearQueue(0);
  EXPECT_EQ(table_.QueueLength(0), 0u);
  EXPECT_FALSE(table_.TryDequeue(0).has_value());
  // The queue is usable again afterwards.
  ASSERT_TRUE(table_.TryEnqueue(0, Meta(3)));
  EXPECT_EQ(table_.TryDequeue(0)->seq, 3u);
}

TEST_F(RequestTableTest, IndexBoundsChecked) {
  EXPECT_THROW(table_.TryEnqueue(16, Meta(0)), CheckFailure);
  EXPECT_THROW(table_.TryDequeue(16), CheckFailure);
  EXPECT_THROW(table_.QueueLength(16), CheckFailure);
}

TEST_F(RequestTableTest, DeclaresThreeStagesOfRegisters) {
  // The paper's layout: queue status, pointers, metadata across stages
  // first..first+2 — seven arrays total (incl. the prototype timestamp).
  EXPECT_EQ(res_.entries().size(), 7u);
  EXPECT_EQ(res_.stages_used(), 5);  // stages 2, 3, 4 occupied
}

// Property: the table behaves as C independent bounded FIFOs under a
// random interleaving, cross-checked against std::deque references.
class RequestTableFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RequestTableFuzz, MatchesReferenceDeques) {
  rmt::Resources res((rmt::AsicConfig()));
  const size_t capacity = 8, depth = 4;
  RequestTable table(&res, capacity, depth, 2);
  std::vector<std::deque<uint32_t>> ref(capacity);
  Rng rng(GetParam());
  uint32_t next_seq = 1;
  for (int op = 0; op < 50000; ++op) {
    const uint32_t idx = static_cast<uint32_t>(rng.UniformU64(capacity));
    if (rng.Bernoulli(0.55)) {
      RequestMeta meta{idx, 1, next_seq, 0};
      const bool ok = table.TryEnqueue(idx, meta);
      ASSERT_EQ(ok, ref[idx].size() < depth);
      if (ok) ref[idx].push_back(next_seq);
      ++next_seq;
    } else {
      auto meta = table.TryDequeue(idx);
      ASSERT_EQ(meta.has_value(), !ref[idx].empty());
      if (meta) {
        ASSERT_EQ(meta->seq, ref[idx].front());
        ref[idx].pop_front();
      }
    }
    ASSERT_EQ(table.QueueLength(idx), ref[idx].size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RequestTableFuzz,
                         ::testing::Values(1, 2, 3, 42));

// Regression: ClearQueue used to reset only the ring pointers, leaving the
// flow-id sidecar of flushed slots stale — a post-reset serve could then
// attribute its hops to a request from before the reset.
TEST_F(RequestTableTest, ClearQueueScrubsTelemetrySidecars) {
  for (uint32_t i = 0; i < 4; ++i) {
    RequestMeta meta = Meta(i);
    meta.int_id = 77 + i;
    ASSERT_TRUE(table_.TryEnqueue(5, meta));
  }
  table_.ClearQueue(5);
  EXPECT_EQ(table_.QueueLength(5), 0u);
  for (uint32_t off = 0; off < 4; ++off)
    EXPECT_EQ(table_.int_id_at(5, off), 0u) << "offset " << off;
  // A fresh unsampled request enqueued after the reset must read back
  // clean ids through the normal dequeue path.
  ASSERT_TRUE(table_.TryEnqueue(5, Meta(9)));
  auto meta = table_.TryDequeue(5);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->int_id, 0u);
}

}  // namespace
}  // namespace orbit::oc
