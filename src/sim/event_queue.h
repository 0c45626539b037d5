// The simulator's event queue.
//
// Two event shapes cover the whole system, as in the paper's testbed, where
// every action is a packet reaching a port or a timer firing (§3.8–3.9):
//   * packet deliveries (the hot path: millions per run) carry their target
//     node/port inline, and
//   * intrusive timers (client Tx ticks, retransmit deadlines, controller
//     periods, server service completions, fault scripts) carry a handler
//     pointer plus a 64-bit argument, so scheduling one allocates nothing.
// An Event is 48 bytes on x86-64.
//
// Ordering: events run in timestamp order, and events at equal timestamps
// fire in insertion order. The structure behind that guarantee is a 4-ary
// min-heap of small (time, bucket) entries over FIFO buckets of events:
//
//   * every push appends the event to a bucket — consecutive same-time
//     pushes share one bucket, so a burst of equal-time events costs one
//     heap operation total and drains as a FIFO run;
//   * buckets are stamped with a creation sequence, and the heap orders by
//     (time, creation). Any later same-time event lands in a younger
//     bucket, so cross-bucket order is still insertion order;
//   * the heap only ever sifts 24-byte entries — the 48-byte Event structs
//     are written once into their bucket and moved once on pop, never
//     during reheapification.
//
// Bucket storage and event vectors are recycled through freelists, so the
// steady state allocates nothing. The two structures that grow with the
// number of pending events hold no storage the queue has not written:
// buckets live in a deque (fixed blocks, never moved), and the heap array
// grows by value-initialising its new half. A doubling vector would leave
// up to half its capacity untouched, and whether the kernel backs such
// pages (transparent huge pages fill a partly-used 2 MiB range) changes a
// run's resident memory by megabytes from one process to the next.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.h"
#include "sim/packet.h"

namespace orbit::sim {

class Node;

// Intrusive zero-allocation timer target. Implementors multiplex on the
// 64-bit argument (a kind tag, a packed (seq, attempt), a pointer...).
// Handlers must outlive their armed timers or never run afterwards (the
// simulator drops unfired events at destruction without invoking them).
class TimerHandler {
 public:
  virtual void OnTimer(uint64_t arg) = 0;

 protected:
  ~TimerHandler() = default;
};

struct Event {
  SimTime time = 0;
  // Delivery payload (hot path) — used when node != nullptr.
  Node* node = nullptr;
  int port = -1;
  PacketPtr pkt;
  // Intrusive timer — used when node == nullptr.
  TimerHandler* timer = nullptr;
  uint64_t arg = 0;
};

class EventQueue {
 public:
  void PushDelivery(SimTime t, Node* node, int port, PacketPtr pkt);
  void PushTimer(SimTime t, TimerHandler* timer, uint64_t arg);

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  // Packet-delivery events currently queued (the packets "on the wire").
  // The verification layer balances this against the packet pool's live
  // count at end of run.
  size_t pending_deliveries() const { return pending_deliveries_; }
  // Earliest pending timestamp. Precondition: !empty().
  SimTime next_time() const;

  // Removes and returns the earliest event. Precondition: !empty().
  Event Pop();

 private:
  struct Bucket {
    std::vector<Event> events;
    uint32_t head = 0;  // next index to pop
  };
  // Heap entries order by (time, bseq): bseq is the bucket's creation
  // stamp, which makes cross-bucket equal-time order match insertion
  // order without a per-event sequence compare.
  struct Entry {
    SimTime time = 0;
    uint64_t bseq = 0;
    uint32_t bucket = 0;
  };

  Event& Append(SimTime t);
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  static bool Before(const Entry& a, const Entry& b) {
    return a.time < b.time || (a.time == b.time && a.bseq < b.bseq);
  }

  // 4-ary implicit min-heap in heap_[0, heap_size_); every slot past it
  // is written too (see the header comment).
  std::vector<Entry> heap_;
  size_t heap_size_ = 0;
  std::deque<Bucket> buckets_;
  std::vector<uint32_t> free_buckets_;
  size_t size_ = 0;
  size_t pending_deliveries_ = 0;
  uint64_t next_bucket_seq_ = 0;
  // One-entry open-bucket cache: the most recently created or appended-to
  // bucket. Consecutive pushes at the same timestamp (clone storms, bursty
  // deliveries) append without touching the heap. Invalidated when that
  // bucket drains.
  bool cache_valid_ = false;
  SimTime cache_time_ = 0;
  uint32_t cache_bucket_ = 0;
};

}  // namespace orbit::sim
