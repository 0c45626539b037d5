#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace orbit::sim {

LaneId EventQueue::NewLane() {
  ORBIT_CHECK(lanes_.size() < kNoLane);
  lanes_.emplace_back();
  return static_cast<LaneId>(lanes_.size() - 1);
}

EventQueue::Block* EventQueue::NewBlock() {
  if (free_blocks_ == nullptr) return &blocks_.emplace_back();
  Block* b = free_blocks_;
  free_blocks_ = b->next;
  b->next = nullptr;
  return b;
}

Event& EventQueue::Place(SimTime t, LaneId lane_id) {
  ++size_;
  const uint64_t seq = next_seq_++;
  Event* e = nullptr;
  if (lane_id != kNoLane) {
    ORBIT_CHECK(lane_id < lanes_.size());
    Lane& lane = lanes_[lane_id];
    const bool was_empty = lane.empty();
    if (was_empty || t >= lane.last_time) {
      if (lane.tail_block == nullptr) {
        lane.head_block = lane.tail_block = NewBlock();
      } else if (lane.tail == kBlockEvents) {
        Block* b = NewBlock();
        lane.tail_block->next = b;
        lane.tail_block = b;
        lane.tail = 0;
      }
      lane.last_time = t;
      e = &lane.tail_block->events[lane.tail++];
      if (was_empty) HeapPush(Entry{t, seq, lane_id, /*loose=*/false});
    }
  }
  if (e == nullptr) {
    uint32_t slot;
    if (!free_loose_.empty()) {
      slot = free_loose_.back();
      free_loose_.pop_back();
    } else {
      slot = static_cast<uint32_t>(loose_.size());
      loose_.emplace_back();
    }
    e = &loose_[slot];
    HeapPush(Entry{t, seq, slot, /*loose=*/true});
  }
  e->time = t;
  e->seq = seq;
  return *e;
}

void EventQueue::PushDelivery(SimTime t, Node* node, int port, PacketPtr pkt,
                              LaneId lane) {
  ++pending_deliveries_;
  Event& e = Place(t, lane);
  e.node = node;
  e.port = port;
  e.delivery = true;
  e.pkt = std::move(pkt);
}

void EventQueue::PushTimer(SimTime t, TimerHandler* timer, uint64_t arg,
                           LaneId lane) {
  Event& e = Place(t, lane);
  e.timer = timer;
  e.arg = arg;
  e.delivery = false;
}

SimTime EventQueue::next_time() const {
  ORBIT_CHECK_MSG(size_ != 0, "next_time() on an empty event queue");
  return heap_.front().time;
}

Event EventQueue::Pop() {
  ORBIT_CHECK_MSG(size_ != 0, "Pop() on an empty event queue");
  --size_;
  const Entry top = heap_.front();
  if (top.loose) {
    Event e = std::move(loose_[top.source]);
    free_loose_.push_back(top.source);
    HeapPopTop();
    if (e.delivery) --pending_deliveries_;
    return e;
  }
  Lane& lane = lanes_[top.source];
  Event e = std::move(lane.head_block->events[lane.head++]);
  if (e.delivery) --pending_deliveries_;
  if (lane.empty()) {
    // Drained: the lane keeps its one block for its next push.
    lane.head = lane.tail = 0;
    HeapPopTop();
    return e;
  }
  if (lane.head == kBlockEvents) {
    Block* done = lane.head_block;
    lane.head_block = done->next;
    lane.head = 0;
    done->next = free_blocks_;
    free_blocks_ = done;
  }
  // The lane's next head takes its entry's place.
  const Event& next = lane.head_block->events[lane.head];
  heap_.front().time = next.time;
  heap_.front().seq = next.seq;
  SiftDown(0);
  return e;
}

void EventQueue::HeapPush(const Entry& entry) {
  if (heap_size_ == heap_.size())
    heap_.resize(std::max<size_t>(64, 2 * heap_.size()));
  heap_[heap_size_] = entry;
  SiftUp(heap_size_++);
}

void EventQueue::HeapPopTop() {
  if (--heap_size_ > 0) {
    heap_.front() = heap_[heap_size_];
    SiftDown(0);
  }
}

void EventQueue::SiftUp(size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!Before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_size_;
  const Entry e = heap_[i];
  for (;;) {
    const size_t first = 4 * i + 1;
    if (first >= n) break;
    const size_t last = std::min(first + 4, n);
    size_t smallest = first;
    for (size_t c = first + 1; c < last; ++c)
      if (Before(heap_[c], heap_[smallest])) smallest = c;
    if (!Before(heap_[smallest], e)) break;
    heap_[i] = heap_[smallest];
    i = smallest;
  }
  heap_[i] = e;
}

}  // namespace orbit::sim
