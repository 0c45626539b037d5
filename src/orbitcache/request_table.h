// The circular-queue request table (paper §3.4, Fig. 5).
//
// OrbitCache must buffer request metadata until the key's circulating
// cache packet passes by. The table provides one logical FIFO queue of
// depth S per cached entry, built exactly as the paper describes, from six
// register arrays laid out over three match-action stages:
//
//   stage A (queue status):   qlen[CacheIdx]
//   stage B (pointer update): front[CacheIdx], rear[CacheIdx]
//   stage C (metadata slots): client_addr[ReqIdx], seq[ReqIdx],
//                             l4_port[ReqIdx]   (+ a timestamp array the
//                             prototype adds for latency measurement, §4)
//
// with ReqIdx = CacheIdx * S + offset — index arithmetic that isolates the
// queues of different keys from one another. Enqueue fails when the queue
// is full (the request overflows to the storage server) and dequeue fails
// when empty (the cache packet recirculates).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "rmt/register_array.h"

namespace orbit::telemetry {
class Registry;
}  // namespace orbit::telemetry

namespace orbit::verify {
class Verifier;
}  // namespace orbit::verify

namespace orbit::oc {

struct RequestMeta {
  Addr client_addr = kInvalidAddr;
  L4Port l4_port = 0;
  uint32_t seq = 0;
  SimTime enqueued_at = 0;
  // Telemetry passenger (not part of the modeled data plane): the sampled
  // request's flow id rides along so the serving cache packet can be
  // correlated back to the absorbed request. Zero for unsampled requests.
  uint32_t int_id = 0;
};

class RequestTable {
 public:
  // Declares the register arrays across stages [first_stage,
  // first_stage + 2] against the device resource ledger.
  RequestTable(rmt::Resources* res, size_t capacity, size_t queue_size,
               int first_stage);

  size_t capacity() const { return capacity_; }
  size_t queue_size() const { return queue_size_; }

  // Appends metadata to idx's queue; false when the queue is full.
  bool TryEnqueue(uint32_t idx, const RequestMeta& meta);
  // Pops the oldest metadata from idx's queue; nullopt when empty.
  std::optional<RequestMeta> TryDequeue(uint32_t idx);
  // Reads the oldest metadata without removing it (multi-packet items
  // dequeue only on the final fragment, §3.10).
  std::optional<RequestMeta> Peek(uint32_t idx) const;

  uint32_t QueueLength(uint32_t idx) const;
  // Drops all buffered metadata for idx (used on cache-entry replacement).
  void ClearQueue(uint32_t idx);

  // Registers per-array access counters ("rmt.s<stage>.<name>.accesses").
  void RegisterTelemetry(telemetry::Registry& reg,
                         const std::string& prefix = "") const;

  // Installs the verification layer's invariant checker: every mutation
  // reports the resulting ring state. Null (the default) disables.
  void SetVerifier(verify::Verifier* verifier) { verifier_ = verifier; }

  // Test/verify access to the telemetry sidecar of idx's slot `offset`.
  uint32_t int_id_at(uint32_t idx, uint32_t offset) const {
    return int_id_[ReqIdx(idx, offset)];
  }

 private:
  size_t ReqIdx(uint32_t idx, uint32_t offset) const {
    return static_cast<size_t>(idx) * queue_size_ + offset;
  }
  // Reports the post-mutation ring state of slot idx to the verifier (via
  // non-counting peeks, so --verify leaves access telemetry untouched).
  void ReportQueueState(const char* where, uint32_t idx) const;

  size_t capacity_;
  size_t queue_size_;

  // Queue management arrays (one slot per cached key).
  rmt::RegisterArray<uint32_t> qlen_;
  rmt::RegisterArray<uint32_t> front_;
  rmt::RegisterArray<uint32_t> rear_;
  // Metadata arrays (capacity * S slots).
  rmt::RegisterArray<Addr> client_addr_;
  rmt::RegisterArray<uint32_t> seq_;
  rmt::RegisterArray<uint16_t> l4_port_;
  rmt::RegisterArray<SimTime> timestamp_;
  // Telemetry sidecar, deliberately NOT a declared RegisterArray: flow ids
  // are observability metadata, and declaring storage for them would
  // charge the Resources ledger (changing rmt_sram metrics) for state the
  // real data plane does not hold.
  std::vector<uint32_t> int_id_;

  verify::Verifier* verifier_ = nullptr;  // not owned; null = no checks
};

}  // namespace orbit::oc
