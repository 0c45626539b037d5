#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "sim/node.h"

namespace orbit::sim {
namespace {

// Most cases push timers and pop them without firing, reading back the id
// each push carried in its argument.
struct NullTimer : TimerHandler {
  void OnTimer(uint64_t) override {}
} timer;

// Pops everything, returning the ids in pop order.
std::vector<uint64_t> Drain(EventQueue& q) {
  std::vector<uint64_t> ids;
  while (!q.empty()) ids.push_back(q.Pop().arg);
  return ids;
}

TEST(EventQueue, EventIs48BytesOnLp64) {
  if constexpr (sizeof(void*) == 8) {
    EXPECT_EQ(sizeof(Event), 48u);
  }
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.PushTimer(30, &timer, 3);
  q.PushTimer(10, &timer, 1);
  q.PushTimer(20, &timer, 2);
  EXPECT_EQ(Drain(q), (std::vector<uint64_t>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  for (uint64_t i = 0; i < 100; ++i) q.PushTimer(5, &timer, i);
  const std::vector<uint64_t> order = Drain(q);
  ASSERT_EQ(order.size(), 100u);
  for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EqualTimesKeepInsertionOrderAcrossOtherTimes) {
  // Same-time pushes separated by pushes at other timestamps must still
  // replay in insertion order.
  EventQueue q;
  q.PushTimer(5, &timer, 50);
  q.PushTimer(3, &timer, 30);  // breaks the t=5 run
  q.PushTimer(5, &timer, 51);
  q.PushTimer(1, &timer, 10);
  q.PushTimer(5, &timer, 52);
  q.PushTimer(3, &timer, 31);
  EXPECT_EQ(Drain(q), (std::vector<uint64_t>{10, 30, 31, 50, 51, 52}));
}

TEST(EventQueue, InterleavedEqualTimesStayFifoUnderRandomLoad) {
  // Randomized version: many pushes over a handful of timestamps, drained
  // with interleaved pops. Within every timestamp the pop order must equal
  // the push order.
  EventQueue q;
  Rng rng(17);
  std::vector<std::vector<uint64_t>> pushed(8), popped(8);
  uint64_t next_id = 0;
  int to_pop = 0;
  const auto pop = [&] {
    const Event e = q.Pop();
    popped[static_cast<size_t>(e.time - 100)].push_back(e.arg);
  };
  for (int round = 0; round < 4000; ++round) {
    if (to_pop < 4000 && (q.empty() || rng.Bernoulli(0.55))) {
      const auto t = static_cast<SimTime>(100 + rng.UniformU64(8));
      const uint64_t id = next_id++;
      pushed[static_cast<size_t>(t - 100)].push_back(id);
      q.PushTimer(t, &timer, id);
    } else if (!q.empty()) {
      pop();
      ++to_pop;
    }
  }
  while (!q.empty()) pop();
  for (size_t t = 0; t < pushed.size(); ++t)
    EXPECT_EQ(popped[t], pushed[t]) << "FIFO broken at timestamp " << t;
}

TEST(EventQueue, EmptyQueueAccessorsAreCheckedPreconditions) {
  EventQueue q;
  EXPECT_THROW(q.next_time(), CheckFailure);
  EXPECT_THROW(q.Pop(), CheckFailure);
  // Still usable after the failed calls.
  q.PushTimer(1, &timer, 0);
  EXPECT_EQ(q.next_time(), 1);
  q.Pop();
  EXPECT_THROW(q.Pop(), CheckFailure);
}

TEST(EventQueue, HeapPropertyUnderRandomLoad) {
  EventQueue q;
  Rng rng(3);
  // Interleave pushes and pops; popped times must be non-decreasing among
  // a monotonically consistent schedule.
  SimTime last = -1;
  int pushed = 0, popped = 0;
  while (popped < 5000) {
    if (pushed < 5000 && (q.empty() || rng.Bernoulli(0.6))) {
      // Never schedule into the past relative to what we've popped.
      q.PushTimer(last + 1 + static_cast<SimTime>(rng.UniformU64(1000)),
                  &timer, static_cast<uint64_t>(pushed));
      ++pushed;
    } else {
      Event e = q.Pop();
      EXPECT_GE(e.time, last);
      last = e.time;
      ++popped;
    }
  }
}

TEST(EventQueue, EqualTimesAcrossLanesAndHeapFireInPushOrder) {
  EventQueue q;
  const LaneId a = q.NewLane();
  const LaneId b = q.NewLane();
  const LaneId lanes[] = {a, kNoLane, b, b, kNoLane, a, a, b, kNoLane};
  for (uint64_t i = 0; i < 9; ++i) q.PushTimer(7, &timer, i, lanes[i]);
  // Before lane a's tail: goes to the heap on its own, and pops first.
  q.PushTimer(3, &timer, 9, a);
  EXPECT_EQ(Drain(q), (std::vector<uint64_t>{9, 0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(EventQueue, LaneSurvivesBeingDrainedAndRefilled) {
  // More events than one block holds, drained to empty, then refilled
  // around loose events, then partly drained and refilled again.
  EventQueue q;
  const LaneId lane = q.NewLane();
  std::vector<uint64_t> expect;
  for (uint64_t i = 0; i < 200; ++i) {
    q.PushTimer(static_cast<SimTime>(10 + i), &timer, i, lane);
    expect.push_back(i);
  }
  EXPECT_EQ(Drain(q), expect);
  // Refilled at earlier times than before: an empty lane takes any time.
  expect.clear();
  for (uint64_t i = 0; i < 150; ++i) {
    q.PushTimer(static_cast<SimTime>(2 * i), &timer, 1000 + i, lane);
    if (i % 10 == 0)
      q.PushTimer(static_cast<SimTime>(2 * i + 1), &timer, 5000 + i);
  }
  for (uint64_t i = 0; i < 150; ++i) {
    expect.push_back(1000 + i);
    if (i % 10 == 0) expect.push_back(5000 + i);
  }
  std::vector<uint64_t> got;
  for (int i = 0; i < 100; ++i) got.push_back(q.Pop().arg);
  for (uint64_t i = 0; i < 100; ++i)
    q.PushTimer(static_cast<SimTime>(300 + i), &timer, 9000 + i, lane);
  for (uint64_t i = 0; i < 100; ++i) expect.push_back(9000 + i);
  for (uint64_t id : Drain(q)) got.push_back(id);
  EXPECT_EQ(got, expect);
}

TEST(EventQueue, LanesMatchAReferenceOrderUnderRandomLoad) {
  // Deliveries and timers on random lanes, kNoLane included, some pushed
  // before their lane's newest event, with pops interleaved: every pop
  // must be the earliest pending (time, push index), and
  // pending_deliveries() must count the deliveries still queued.
  struct Sink : Node {
    void OnPacket(PacketPtr, int) override {}
    std::string name() const override { return "sink"; }
  } sink;
  EventQueue q;
  std::vector<LaneId> lanes;
  for (int i = 0; i < 6; ++i) lanes.push_back(q.NewLane());
  std::vector<SimTime> newest(lanes.size(), 0);
  Rng rng(29);
  std::set<std::pair<SimTime, uint64_t>> reference;
  std::vector<bool> is_delivery;
  size_t deliveries = 0;
  int out_of_order = 0;
  SimTime now = 0;
  const auto pop_and_check = [&] {
    const Event e = q.Pop();
    const auto [t, id] = *reference.begin();
    reference.erase(reference.begin());
    ASSERT_EQ(e.time, t);
    ASSERT_EQ(e.delivery, is_delivery[id]);
    if (e.delivery) {
      ASSERT_EQ(e.pkt->msg.seq, id);
      --deliveries;
    } else {
      ASSERT_EQ(e.arg, id);
    }
    now = t;
  };
  for (int round = 0; round < 40'000; ++round) {
    if (reference.empty() || rng.Bernoulli(0.52)) {
      const uint64_t id = is_delivery.size();
      const size_t pick = rng.UniformU64(lanes.size() + 1);
      SimTime t = now + static_cast<SimTime>(rng.UniformU64(8));
      LaneId lane = kNoLane;
      if (pick < lanes.size()) {
        lane = lanes[pick];
        // Mostly in lane order, one push in eight wherever it falls.
        if (!rng.Bernoulli(0.125)) t = std::max(t, newest[pick]);
        if (t < newest[pick]) ++out_of_order;
        newest[pick] = std::max(newest[pick], t);
      }
      const bool delivery = rng.Bernoulli(0.5);
      is_delivery.push_back(delivery);
      if (delivery) {
        auto pkt = NewPacket(0, 0, 0, 0);
        pkt->msg.seq = static_cast<uint32_t>(id);
        q.PushDelivery(t, &sink, 1, std::move(pkt), lane);
        ++deliveries;
      } else {
        q.PushTimer(t, &timer, id, lane);
      }
      reference.emplace(t, id);
    } else {
      ASSERT_NO_FATAL_FAILURE(pop_and_check());
    }
    ASSERT_EQ(q.size(), reference.size());
    ASSERT_EQ(q.pending_deliveries(), deliveries);
  }
  EXPECT_GT(out_of_order, 100);
  while (!q.empty()) {
    ASSERT_NO_FATAL_FAILURE(pop_and_check());
    ASSERT_EQ(q.pending_deliveries(), deliveries);
  }
  EXPECT_TRUE(reference.empty());
}

TEST(EventQueue, DeliveryEventsCarryPayload) {
  struct Probe : Node {
    void OnPacket(PacketPtr pkt, int port) override {
      last_port = port;
      last_key = pkt->msg.key;
    }
    std::string name() const override { return "probe"; }
    int last_port = -1;
    Key last_key;
  } probe;

  EventQueue q;
  auto pkt = NewPacket(0, 0, 0, 0);
  pkt->msg.key = "k";
  q.PushDelivery(5, &probe, 3, std::move(pkt));
  EXPECT_EQ(q.pending_deliveries(), 1u);
  Event e = q.Pop();
  EXPECT_EQ(q.pending_deliveries(), 0u);
  ASSERT_TRUE(e.delivery);
  ASSERT_NE(e.node, nullptr);
  e.node->OnPacket(std::move(e.pkt), e.port);
  EXPECT_EQ(probe.last_port, 3);
  EXPECT_EQ(probe.last_key, "k");
}

TEST(EventQueue, SizeTracksPushesAndPops) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.PushTimer(1, &timer, 0);
  q.PushTimer(2, &timer, 1);
  EXPECT_EQ(q.size(), 2u);
  q.Pop();
  EXPECT_EQ(q.size(), 1u);
  q.Pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimePeeksEarliest) {
  EventQueue q;
  q.PushTimer(42, &timer, 0);
  q.PushTimer(7, &timer, 1);
  EXPECT_EQ(q.next_time(), 7);
}

}  // namespace
}  // namespace orbit::sim
