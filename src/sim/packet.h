// Simulated packets.
//
// A packet carries the parsed OrbitCache message plus the simulated
// L3/L4 addressing the switch forwards on. Packets are unique-owned and
// moved through the simulator; cloning (the PRE path) copies the struct
// while the lazy value payload stays shared — exactly the descriptor-copy
// semantics the paper attributes to the Tofino packet replication engine.
//
// Allocation discipline: packets are drawn from a per-Simulator
// PacketPool (a freelist over stable slab storage, mirroring the fixed
// descriptor pool a real ASIC's replication engine works from). PacketPtr
// keeps unique-ownership move semantics, but its deleter returns the
// packet to its owning pool instead of freeing it, so the steady-state
// hot path performs zero heap allocations per packet. Recycled packets
// keep their internal buffers (the key string's capacity survives), which
// removes the per-packet string allocation as well. Code running without
// an installed pool (unit tests building bare packets) transparently
// falls back to the heap.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "proto/message.h"

namespace orbit::sim {

class PacketPool;

// Terminal state of a packet's life, written unconditionally at every site
// that consumes, absorbs, or drops a packet. Purely observational — nothing
// in the simulation reads it back — but it lets the verification layer
// (src/verify/) prove that no packet ever vanished silently: a packet
// returning to the pool while still kNone was dropped without a reason.
enum class PacketEnd : uint8_t {
  kNone = 0,          // still in flight
  kConsumed,          // delivered to and consumed by an endpoint
  kAbsorbed,          // request absorbed into the switch request table
  kCloneSource,       // PRE source descriptor retired after cloning
  kDroppedByProgram,  // switch program chose Drop
  kDroppedUnrouted,   // no route for the destination address
  kDroppedLink,       // link down / injected loss / queue overflow
  kDroppedRecirc,     // recirculation FIFO overflow
  kDroppedRxQueue,    // server admission (socket buffer) drop
  kFlushedAtReset,    // lost to a switch reboot barrier
  kIgnored,           // endpoint received an op it does not handle
};

struct Packet {
  Addr src = kInvalidAddr;
  Addr dst = kInvalidAddr;
  L4Port sport = 0;
  L4Port dport = 0;

  proto::Message msg;

  // Stamped by the original sender; clients compute end-to-end latency
  // from it when the reply returns.
  SimTime sent_at = 0;

  // Switch-visible per-traversal metadata (reset on each ingress).
  bool from_recirc = false;
  uint32_t recirc_count = 0;
  // Stamped by the recirculation port; packets from before a reboot
  // barrier are discarded on delivery (a real ASIC reset loses them).
  uint32_t recirc_generation = 0;

  // Hop-event stream handle (telemetry::IntSink flow id): non-zero marks
  // a sampled request whose hops stamp per-hop records. Purely
  // observational — forwarding decisions never read it. Clones inherit
  // it; replies copy it from the request so one id follows the whole
  // lifecycle.
  uint32_t int_id = 0;

  // How this packet's life ended (see PacketEnd). Observational only;
  // cleared on Reset, never copied by CopyFrom (a clone starts fresh).
  PacketEnd end_reason = PacketEnd::kNone;

  uint32_t wire_bytes() const {
    return proto::kEncapBytes + proto::Message::kHeaderBytes +
           msg.payload_bytes();
  }

  // Restores every field to its default while keeping internal buffer
  // capacity (the recycled key string), so a reused packet is
  // indistinguishable from a freshly constructed one.
  void Reset();
  // Field-wise copy that preserves the destination's pool binding; the
  // value payload's backing bytes (if materialized) are shared.
  void CopyFrom(const Packet& other);

  PacketPool* pool() const { return pool_; }

 private:
  friend class PacketPool;
  friend struct PacketDeleter;
  PacketPool* pool_ = nullptr;  // null = heap-allocated fallback
};

// Returns heap packets with `delete`, pooled packets to their pool.
struct PacketDeleter {
  void operator()(Packet* pkt) const noexcept;
};

using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

// Records a packet's terminal state. First writer wins: a request absorbed
// by the switch program is marked at the absorb site, and the device-level
// Drop handling that follows must not overwrite it.
inline void MarkEnd(Packet& pkt, PacketEnd reason) {
  if (pkt.end_reason == PacketEnd::kNone) pkt.end_reason = reason;
}

// Observer of packet-pool releases (implemented by verify::Verifier).
// Installed only under --verify; the pool's release path costs one
// null-pointer test otherwise.
class PoolObserver {
 public:
  virtual ~PoolObserver() = default;
  virtual void OnRelease(const Packet& pkt) = 0;
};

// Freelist-backed packet descriptor pool. Slab storage (deque-of-chunks)
// keeps addresses stable for the packet's whole lifetime; destroying the
// pool reclaims every packet it ever produced, including ones still
// referenced by undelivered simulator events.
class PacketPool {
 public:
  PacketPool() = default;
  ~PacketPool();
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // A reset packet owned by this pool (recycled when possible).
  PacketPtr Acquire();
  void Release(Packet* pkt);

  // The calling thread's active pool (set by Simulator); null when no
  // simulator is live on this thread.
  static PacketPool* Current();

  struct Stats {
    uint64_t allocated = 0;  // fresh slab slots ever handed out
    uint64_t recycled = 0;   // acquisitions served from the freelist
    uint64_t released = 0;   // packets returned to the freelist
  };
  const Stats& stats() const { return stats_; }
  size_t free_count() const { return free_.size(); }

  // Verification hook: `observer` (may be null) sees every Release while
  // set. Not owned; uninstall (set null) before the observer dies.
  void set_observer(PoolObserver* observer) { observer_ = observer; }

  // RAII thread-local installation (nestable: restores the previous pool).
  class ScopedInstall {
   public:
    explicit ScopedInstall(PacketPool* pool);
    ~ScopedInstall();
    ScopedInstall(const ScopedInstall&) = delete;
    ScopedInstall& operator=(const ScopedInstall&) = delete;

   private:
    PacketPool* prev_;
  };

 private:
  static constexpr size_t kChunkPackets = 256;

  std::vector<std::unique_ptr<Packet[]>> chunks_;
  size_t chunk_used_ = kChunkPackets;  // slots consumed in the last chunk
  std::vector<Packet*> free_;
  Stats stats_;
  PoolObserver* observer_ = nullptr;
};

// A blank packet with only the addressing filled in, drawn from the
// thread's current pool (heap fallback without one). Hot-path senders use
// this and assign message fields in place, which lets a recycled packet's
// key buffer absorb the copy without allocating.
PacketPtr NewPacket(Addr src, Addr dst, L4Port sport, L4Port dport);

// PRE-style clone: value copy of all fields; the value payload's backing
// bytes (if materialized) are shared, not duplicated.
PacketPtr ClonePacket(const Packet& pkt);

// Convenience builder for host code.
PacketPtr MakePacket(Addr src, Addr dst, L4Port sport, L4Port dport,
                     proto::Message msg);

}  // namespace orbit::sim
