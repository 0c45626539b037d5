#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace orbit::sim {

Event& EventQueue::Append(SimTime t) {
  ++size_;
  if (cache_valid_ && cache_time_ == t) {
    Bucket& b = buckets_[cache_bucket_];
    return b.events.emplace_back();
  }
  uint32_t idx;
  if (!free_buckets_.empty()) {
    idx = free_buckets_.back();
    free_buckets_.pop_back();
  } else {
    idx = static_cast<uint32_t>(buckets_.size());
    buckets_.emplace_back();
  }
  if (heap_size_ == heap_.size())
    heap_.resize(std::max<size_t>(64, 2 * heap_.size()));
  heap_[heap_size_] = Entry{t, next_bucket_seq_++, idx};
  SiftUp(heap_size_++);
  cache_valid_ = true;
  cache_time_ = t;
  cache_bucket_ = idx;
  return buckets_[idx].events.emplace_back();
}

void EventQueue::PushDelivery(SimTime t, Node* node, int port, PacketPtr pkt) {
  ++pending_deliveries_;
  Event& e = Append(t);
  e.time = t;
  e.node = node;
  e.port = port;
  e.pkt = std::move(pkt);
}

void EventQueue::PushTimer(SimTime t, TimerHandler* timer, uint64_t arg) {
  Event& e = Append(t);
  e.time = t;
  e.timer = timer;
  e.arg = arg;
}

SimTime EventQueue::next_time() const {
  ORBIT_CHECK_MSG(size_ != 0, "next_time() on an empty event queue");
  return heap_.front().time;
}

Event EventQueue::Pop() {
  ORBIT_CHECK_MSG(size_ != 0, "Pop() on an empty event queue");
  const Entry top = heap_.front();
  Bucket& b = buckets_[top.bucket];
  Event e = std::move(b.events[b.head++]);
  --size_;
  if (e.node != nullptr) --pending_deliveries_;
  if (b.head == b.events.size()) {
    // Bucket drained: recycle it (the events vector keeps its capacity)
    // and retire its heap entry.
    b.events.clear();
    b.head = 0;
    free_buckets_.push_back(top.bucket);
    if (cache_valid_ && cache_bucket_ == top.bucket) cache_valid_ = false;
    if (--heap_size_ > 0) {
      heap_.front() = heap_[heap_size_];
      SiftDown(0);
    }
  }
  return e;
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
