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
// Ordering: events pop in (time, seq) order, where seq is one global
// sequence number taken at every push. So equal timestamps fire in push
// order — the determinism guarantee every byte-identity claim rests on.
//
// FIFO lanes. Most events come from a source whose pushes are already in
// time order: a link direction's deliveries, a switch's recirculation
// passes, one attempt level of a client's deadlines, a server's service
// completions. Such a source owns a lane (NewLane) and names it on push.
// A push joins its lane when its time is not before the lane's last push;
// otherwise it goes to the heap on its own, as does every push that names
// no lane. A 4-ary min-heap orders 24-byte (time, seq, source) entries:
// one per non-empty lane (its head) and one per loose event. Popping a
// lane's head puts the lane's next head in its place with one sift, so a
// lane costs the heap nothing per event beyond that sift.
//
// A lane is only a hint. Because every pop compares (time, seq), any
// choice of lane, or none, pops the same sequence; a source whose order
// breaks (a gray link healing, a recirculation flush) just pushes loose
// until its lane drains.
//
// Storage stays dense: a growing array that leaves part of its capacity
// untouched lets the kernel back that range or not (transparent huge pages
// fill a partly-used 2 MiB range), which moves a run's resident memory by
// megabytes from one process to the next. So lane events live in fixed
// blocks of 64 drawn from one freelist that all lanes share (an empty lane
// keeps one block), loose events in a deque of slots behind a freelist,
// and the heap array grows by value-initialising its new half.
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

// A FIFO lane's id (EventQueue::NewLane); kNoLane pushes to the heap.
using LaneId = uint32_t;
inline constexpr LaneId kNoLane = ~LaneId{0};

struct Event {
  SimTime time = 0;
  uint64_t seq = 0;  // push order, set by the queue
  union {
    Node* node = nullptr;  // delivery target
    TimerHandler* timer;   // timer target
  };
  int port = -1;
  // A delivery (node, port, pkt) when set, else a timer (timer, arg).
  bool delivery = false;
  PacketPtr pkt;
  uint64_t arg = 0;
};

class EventQueue {
 public:
  EventQueue() = default;
  // Lanes point into the queue's own block storage.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // A new, empty lane. Lanes live as long as the queue.
  LaneId NewLane();

  void PushDelivery(SimTime t, Node* node, int port, PacketPtr pkt,
                    LaneId lane = kNoLane);
  void PushTimer(SimTime t, TimerHandler* timer, uint64_t arg,
                 LaneId lane = kNoLane);

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
  static constexpr uint32_t kBlockEvents = 64;
  struct Block {
    Event events[kBlockEvents];
    Block* next = nullptr;  // the lane's next block, or the freelist's
  };
  // Events [head, tail) of a chain of blocks from head_block to
  // tail_block; both blocks are null until the first push.
  struct Lane {
    Block* head_block = nullptr;
    Block* tail_block = nullptr;
    uint32_t head = 0;
    uint32_t tail = 0;
    SimTime last_time = 0;  // time of the newest event
    bool empty() const { return head_block == tail_block && head == tail; }
  };
  // A lane's head (loose == false, source = lane id) or a loose event
  // (source = its slot in loose_).
  struct Entry {
    SimTime time = 0;
    uint64_t seq = 0;
    uint32_t source = 0;
    bool loose = false;
  };

  // Takes the next seq and returns the slot the event goes in, with its
  // time and seq set.
  Event& Place(SimTime t, LaneId lane);
  Block* NewBlock();
  void HeapPush(const Entry& entry);
  void HeapPopTop();
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  static bool Before(const Entry& a, const Entry& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  // 4-ary implicit min-heap in heap_[0, heap_size_); every slot past it
  // is written too (see the header comment).
  std::vector<Entry> heap_;
  size_t heap_size_ = 0;
  std::vector<Lane> lanes_;
  std::deque<Block> blocks_;  // never moves a block
  Block* free_blocks_ = nullptr;
  std::deque<Event> loose_;
  std::vector<uint32_t> free_loose_;
  size_t size_ = 0;
  size_t pending_deliveries_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace orbit::sim
